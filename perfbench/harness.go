package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its whole set-up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workdir  string // scratch for store bundles and data files, created by the caller
	daemon   string // assocmined binary (serve-mix only)
}

// bench is one workload. setup builds everything from the seed and warms
// the timed path, replacing any earlier set-up; measure runs the closed
// loop until the deadline.
type bench interface {
	// setup returns per-layer set-up timings in ms (e.g. store.create_ms).
	setup(ctx context.Context) (map[string]float64, error)
	// measure runs ops until deadline; traced runs interleave traced and
	// untraced ops and fill layers.
	measure(ctx context.Context, deadline time.Time, traced bool) (*measurement, error)
	// pid is the process the timed phase charges for memory.
	pid() int
	// workers is the mining worker count of the workload.
	workers() int
	// spans holds the traced run's spans.
	spans() *recorder
	close()
}

// measurement is what a workload's timed phase observed.
type measurement struct {
	latMS     []float64 // the op wall times op_p50_ms is the median of, ms
	done      int       // ops that succeeded
	attempted int
	failed    int
	elapsed   time.Duration // from the first op's start to the last op's end
	cpuS      float64       // CPU seconds charged to the ops
	layers    map[string]float64
	detail    []string // human-readable lines printed before the result
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if m.failed <= 5 {
		m.detail = append(m.detail, "FAILED op: "+fmt.Sprintf(format, args...))
	}
}

// outcome is one run's full output.
type outcome struct {
	setupS  float64
	m       *measurement
	rssMB   float64
	setupMS map[string][]float64
}

// runBench sets b up setupReps times, resets memory accounting, and
// measures for cfg.seconds.
func runBench(ctx context.Context, b bench, cfg config) (*outcome, error) {
	out := &outcome{setupMS: map[string][]float64{}}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		layers, err := b.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, v := range layers {
			out.setupMS[k] = append(out.setupMS[k], v)
		}
	}
	out.setupS = median(setups)

	// The timed phase's memory is the ops', not generation's or the
	// reference mine's: return freed pages and restart the high-water mark.
	debug.FreeOSMemory()
	if err := clearRefs(b.pid()); err != nil {
		return nil, err
	}
	m, err := b.measure(ctx, time.Now().Add(cfg.seconds), cfg.traced)
	if err != nil {
		return nil, err
	}
	out.m = m
	if out.rssMB, err = peakRSSMB(b.pid()); err != nil {
		return nil, err
	}
	return out, nil
}

// clearRefs resets the peak-RSS counter (VmHWM) of pid.
func clearRefs(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads VmHWM of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is pid's user+system CPU time from /proc/<pid>/stat, in clock
// ticks of 1/100 s (the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat cpu times", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// hostRecord identifies the machine and settings a result was taken on.
type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"goVersion"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
}

func newHostRecord(cfg config, b bench, clients int) hostRecord {
	return hostRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Traced:     cfg.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    b.workers(),
		Clients:    clients,
	}
}
