// Command perfbench is the repository's end-to-end benchmark. It runs one
// seed-driven workload against the real layers for a fixed time, checks
// every output against a reference computed by a different path, and
// prints its metrics as one JSON object on the last line of stdout:
// end-to-end metrics untraced (-trace 0), per-layer metrics from a
// separate traced run (-trace 1). See README.md for the workloads.
//
//	perfbench -workload mem-d50k -seed 1 -seconds 15 -trace 0 -workdir DIR [-daemon assocmined]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func(config) bench{
	// The paper's configuration: T10.I6.D50K at 0.1%, one worker.
	"mem-d50k": func(c config) bench { return newBatch(c, 50000, 0.1, 1, false) },
	// A store bundle four times the residency budget. Two workers: the only
	// workload on the work-stealing driver, which runs after the serial L2
	// pass that dominates the op, so the second core adds little noise.
	"store-ooc-d20k": func(c config) bench { return newBatch(c, 20000, 0.1, 2, true) },
	// The daemon over HTTP: cache hits, fresh top-k queries, dataset writes.
	"serve-mix": func(c config) bench { return newServe(c) },
}

// endToEnd and perLayer are the metric names, units and the order in
// which the final JSON line reports them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"eclat.init_ms", "ms"},
	{"eclat.transform_ms", "ms"},
	{"eclat.async_ms", "ms"},
	{"eclat.unspanned_ms", "ms"},
	{"eclat.classes", "count"},
	{"eclat.steals", "count"},
	{"eclat.worker_busy_frac", "ratio"},
	{"eclat.class_refetches", "count"},
	{"tidlist.intersections", "count"},
	{"tidlist.intersect_ops", "count"},
	{"tidlist.shortcircuit_frac", "ratio"},
	{"tidlist.itemsets_per_intersection", "ratio"},
	{"tidlist.sparse_ops", "count"},
	{"tidlist.roaring_elem_ops", "count"},
	{"tidlist.dense_words", "count"},
	{"tidlist.conversions", "count"},
	{"store.create_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.sets_ms", "ms"},
	{"store.acquire_ms", "ms"},
	{"store.acquires", "count"},
	{"store.class_window_max_ms", "ms"},
	{"store.madvise_calls", "count"},
	{"store.evictions", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_ms", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"service.register_ms", "ms"},
	{"service.delete_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"http.result_bytes", "bytes"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.write_p50_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workdir := fs.String("workdir", "", "scratch directory for generated data and store bundles (required)")
	spans := fs.String("spans", "", "file the traced run writes its spans to (JSON lines)")
	daemonBin := fs.String("daemon", "", "assocmined binary (serve-mix)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -workdir, -seconds ≥ 1 and -trace 0|1\n", names())
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, workdir: *workdir, daemon: *daemonBin}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := mk(cfg)
	out, err := runBench(ctx, b, cfg)
	b.close()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	clients := 1
	if _, ok := b.(*serve); ok {
		clients = serveClients
	}
	host, _ := json.Marshal(newHostRecord(cfg, b, clients))
	fmt.Fprintf(stdout, "host %s\n", host)
	for _, line := range out.m.detail {
		fmt.Fprintln(stdout, line)
	}
	if cfg.traced && *spans != "" {
		if err := os.MkdirAll(filepath.Dir(*spans), 0o755); err == nil {
			err = b.spans().write(*spans)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", *spans)
	}
	res := report(cfg, out)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report turns a run's outcome into the final result: end-to-end
// metrics untraced, per-layer metrics traced.
func report(cfg config, out *outcome) result {
	m := out.m
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	ok := m.done
	if !cfg.traced {
		vals := map[string]float64{
			"setup_s":     out.setupS,
			"op_p50_ms":   median(m.latMS),
			"peak_rss_mb": out.rssMB,
		}
		if ok > 0 {
			vals["ops_per_s"] = float64(ok) / m.elapsed.Seconds()
			vals["cpu_s_per_op"] = m.cpuS / float64(m.attempted)
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{vals[e.name], e.unit}
		}
		return res
	}
	layers := m.layers
	for k, v := range out.setupMS {
		layers[k] = median(v)
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{layers[l.name], l.unit}
	}
	return res
}

func names() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
