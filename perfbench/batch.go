package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/db"
	"repro/internal/eclat"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/tidlist"
)

// oocSegmentBytes is the store-ooc bundle segment size: small enough
// that a 25% residency budget spans several segments (about 17 for
// T10.I6.D20K).
const oocSegmentBytes = 64 << 10

// batch is a closed loop of whole mines from one caller: in memory
// through repro.Mine, or from a store bundle through repro.MineFrom under
// a residency budget.
type batch struct {
	name     string
	txs      int
	pct      float64
	par      int
	stored   bool
	seed     int64
	workdir  string
	rec      *recorder // spans of the traced run
	setupNum int

	d      *db.Database // nil for the stored workload once set up
	ds     *store.Dataset
	opts   repro.MineOptions
	minsup int
	ref    fingerprint
}

func newBatch(cfg config, txs int, pct float64, par int, stored bool) *batch {
	return &batch{name: cfg.workload, txs: txs, pct: pct, par: par, stored: stored,
		seed: cfg.seed, workdir: cfg.workdir, rec: newRecorder()}
}

func (b *batch) pid() int         { return os.Getpid() }
func (b *batch) workers() int     { return b.par }
func (b *batch) spans() *recorder { return b.rec }

func (b *batch) close() {
	if b.ds != nil {
		b.ds.Close()
		b.ds = nil
	}
}

// generate builds a workload's input from the seed: the paper's T10.I6
// database of txs transactions (the generator's standard configuration),
// with its item ids relabelled and its transactions reordered by
// permutations the seed draws. Every seed thus yields different bytes,
// tid-lists, equivalence-class partitions and class schedules, but the
// same amount of mining (the same frequent-itemset count), so run-to-run
// spread measures the program and the host rather than how many patterns
// one generator seed happened to plant.
func generate(txs int, seed int64) (*db.Database, error) {
	d, err := gen.Generate(gen.T10I6(txs))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(d.NumItems)
	order := rng.Perm(len(d.Transactions))
	out := &db.Database{NumItems: d.NumItems, Transactions: make([]db.Transaction, len(order))}
	for tid, src := range order {
		items := make(itemset.Itemset, len(d.Transactions[src].Items))
		for i, it := range d.Transactions[src].Items {
			items[i] = itemset.Item(label[it])
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		out.Transactions[tid] = db.Transaction{TID: itemset.TID(tid), Items: items}
	}
	return out, out.Validate()
}

// reference mines d by a different path than any timed op: in memory,
// sequential, sparse encoding.
func reference(ctx context.Context, d *db.Database, minsup int) (*mining.Result, error) {
	res, _, err := eclat.MineSequentialOpts(ctx, d, minsup, eclat.Options{Representation: tidlist.ReprSparse})
	return res, err
}

func (b *batch) setup(ctx context.Context) (map[string]float64, error) {
	b.close()
	b.setupNum++
	layers := map[string]float64{}
	d, err := generate(b.txs, b.seed)
	if err != nil {
		return nil, err
	}
	b.opts = repro.MineOptions{SupportPct: b.pct, Representation: repro.ReprAuto, Parallelism: b.par}
	if b.minsup, err = b.opts.MinSup(d); err != nil {
		return nil, err
	}
	if b.stored {
		path := filepath.Join(b.workdir, fmt.Sprintf("%s-%d.ds", b.name, b.setupNum))
		t0 := time.Now()
		if err := store.CreateDatasetSeg(path, store.DatasetMeta(b.name, "perfbench", d), d, store.VerticalLists(d), oocSegmentBytes); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if b.ds, err = store.OpenDataset(path); err != nil {
			return nil, err
		}
		layers["store.create_ms"] = ms(t1.Sub(t0))
		layers["store.open_ms"] = ms(time.Since(t1))
		b.opts.MemoryBudget = b.ds.BytesMapped() / 4
	}
	ref, err := reference(ctx, d, b.minsup)
	if err != nil {
		return nil, err
	}
	b.ref = fingerprintOf(ref)
	// The reference mine has grown the heap to an op's size, so the first
	// timed op pays no warm-up cost that later ones do not.
	b.d = d
	if b.stored {
		b.d = nil // the timed ops read the bundle only
	}
	return layers, nil
}

// mine is one untraced op: the public entry point a user would call.
func (b *batch) mine(ctx context.Context) (*mining.Result, error) {
	if b.stored {
		res, info, err := repro.MineFrom(ctx, b.ds, b.opts)
		if err == nil && !info.OutOfCore {
			err = fmt.Errorf("budgeted mine ran in core")
		}
		return res, err
	}
	res, _, err := repro.Mine(ctx, b.d, b.opts)
	return res, err
}

// tracedOp is one traced op: the same work as mine, driven through the
// layers' own entry points with an obsv trace on the context and the
// layer calls timed from here.
type tracedOp struct {
	wall   time.Duration
	st     eclat.Stats
	res    *mining.Result
	layers map[string]float64
}

// Names of the program's own metrics that the traced run reads as deltas
// around an op (obsv metric names are package-level constants).
const (
	mnWorkerBusyNS   = "eclat_worker_busy_ns"
	mnMadviseCalls   = "store_madvise_calls_total"
	mnEvictions      = "store_residency_evictions_total"
	mnClassRefetches = "eclat_class_refetches_total"
)

// counterLayers are the per-layer metrics read as obsv counter deltas
// around a traced op. The program registers these counters when its
// packages initialize, before this table looks them up.
var counterLayers = []struct {
	layer string
	c     *obsv.Counter
}{
	{"store.madvise_calls", obsv.Default.Counter(mnMadviseCalls, "")},
	{"store.evictions", obsv.Default.Counter(mnEvictions, "")},
	{"eclat.class_refetches", obsv.Default.Counter(mnClassRefetches, "")},
}

func (b *batch) mineTraced(ctx context.Context, op int) (*tracedOp, error) {
	busy := obsv.Default.Histogram(mnWorkerBusyNS, "", nil)
	busy0 := busy.Sum()
	before := make([]int64, len(counterLayers))
	for i, c := range counterLayers {
		before[i] = c.c.Value()
	}

	tr := obsv.NewTrace()
	tctx := obsv.WithTrace(ctx, tr)
	origin := time.Now()
	t := &tracedOp{layers: map[string]float64{}}
	var shim *timedResidency
	var kids []kid
	var err error
	eopts := eclat.Options{Representation: tidlist.ReprAuto, Workers: b.par}
	if b.stored {
		s0 := time.Now()
		items, _ := b.ds.VerticalSets(tidlist.ReprAuto)
		s1 := time.Now()
		kids = append(kids, kid{"store.sets", s0, s1})
		t.layers["store.sets_ms"] = ms(s1.Sub(s0))
		shim = &timedResidency{r: b.ds.NewResidency(b.opts.MemoryBudget), open: map[int]time.Time{}}
		in := eclat.VerticalInput{NumTransactions: b.ds.NumTransactions(), Items: items, Residency: shim}
		t.res, t.st, err = eclat.MineVerticalLocal(tctx, in, b.minsup, eopts)
	} else {
		// The in-memory workload mines with one worker.
		t.res, t.st, err = eclat.MineSequentialOpts(tctx, b.d, b.minsup, eopts)
	}
	end := time.Now()
	if err != nil {
		return nil, err
	}
	t.wall = end.Sub(origin)
	phases := map[string]float64{}
	for _, p := range tr.Spans() {
		s := origin.Add(time.Duration(p.StartNS))
		kids = append(kids, kid{p.Name, s, s.Add(time.Duration(p.DurationNS))})
		phases[p.Name] += float64(p.DurationNS) / 1e6
	}
	if shim != nil {
		for _, w := range shim.windows {
			kids = append(kids, kid{"store.class_window", w[0], w[1]})
		}
	}
	root := b.rec.addTree(op, "op", origin, end, kids)
	t.layers["eclat.init_ms"] = phases["initialization"]
	t.layers["eclat.transform_ms"] = phases["transformation"]
	t.layers["eclat.async_ms"] = phases["asynchronous"]
	// Class windows lie inside the asynchronous phase, so they do not
	// change the root's self time.
	t.layers["eclat.unspanned_ms"] = float64(selfNS(b.rec.get(root), b.rec.children(root))) / 1e6
	t.layers["eclat.classes"] = float64(t.st.Classes)
	t.layers["eclat.steals"] = float64(t.st.Steals)
	if async := phases["asynchronous"]; async > 0 && t.st.Workers > 0 {
		t.layers["eclat.worker_busy_frac"] = float64(busy.Sum()-busy0) / 1e6 / (float64(t.st.Workers) * async)
	}
	t.layers["tidlist.intersections"] = float64(t.st.Intersections)
	t.layers["tidlist.intersect_ops"] = float64(t.st.IntersectOps)
	if t.st.Intersections > 0 {
		t.layers["tidlist.shortcircuit_frac"] = float64(t.st.ShortCircuited) / float64(t.st.Intersections)
		t.layers["tidlist.itemsets_per_intersection"] = float64(t.res.Len()) / float64(t.st.Intersections)
	}
	t.layers["tidlist.sparse_ops"] = float64(t.st.Kernel.SparseOps())
	t.layers["tidlist.roaring_elem_ops"] = float64(t.st.Kernel.RoaringElemOps())
	t.layers["tidlist.dense_words"] = float64(t.st.Kernel.WordsTouched())
	t.layers["tidlist.conversions"] = float64(t.st.Kernel.Conversions())
	if shim != nil {
		t.layers["store.acquire_ms"] = ms(shim.acquire)
		t.layers["store.acquires"] = float64(shim.acquires)
		t.layers["store.class_window_max_ms"] = ms(shim.maxWindow)
	}
	for i, c := range counterLayers {
		t.layers[c.layer] = float64(c.c.Value() - before[i])
	}
	return t, nil
}

func (b *batch) measure(ctx context.Context, deadline time.Time, traced bool) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var tracedMS, plainMS []float64
	perLayer := map[string][]float64{}
	var cpu time.Duration
	start := time.Now()
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		m.attempted++
		var res *mining.Result
		var err error
		c0 := selfCPU()
		t0 := time.Now()
		if traced && i%2 == 0 {
			var t *tracedOp
			if t, err = b.mineTraced(ctx, i); err == nil {
				res = t.res
				tracedMS = append(tracedMS, ms(t.wall))
				for k, v := range t.layers {
					perLayer[k] = append(perLayer[k], v)
				}
			}
		} else {
			res, err = b.mine(ctx)
			if err == nil && traced {
				plainMS = append(plainMS, ms(time.Since(t0)))
			}
		}
		wall := time.Since(t0)
		cpu += selfCPU() - c0
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		if got := fingerprintOf(res); got != b.ref {
			m.fail("op %d: result %v, reference %v", i, got, b.ref)
			continue
		}
		m.done++
		m.latMS = append(m.latMS, ms(wall))
	}
	m.elapsed = time.Since(start)
	m.cpuS = cpu.Seconds()
	if traced {
		for k, v := range perLayer {
			m.layers[k] = median(v)
		}
		if p := median(plainMS); p > 0 {
			m.layers["trace_overhead_frac"] = median(tracedMS)/p - 1
		}
		m.detail = append(m.detail, fmt.Sprintf("traced ops %d (p50 %.3f ms), untraced ops %d (p50 %.3f ms)",
			len(tracedMS), median(tracedMS), len(plainMS), median(plainMS)))
	}
	m.detail = append(m.detail, fmt.Sprintf("reference %v at minsup %d", b.ref, b.minsup),
		fmt.Sprintf("op ms in order: %.1f", m.latMS))
	return m, nil
}

// timedResidency implements eclat.Residency around the store's tracker,
// timing each Acquire and each class's window from Acquire to Release.
type timedResidency struct {
	r         *store.Residency
	mu        sync.Mutex
	open      map[int]time.Time
	windows   [][2]time.Time
	acquire   time.Duration
	acquires  int
	maxWindow time.Duration
}

func (t *timedResidency) ItemSegment(item int) int { return t.r.ItemSegment(item) }
func (t *timedResidency) Plan(classes [][]int)     { t.r.Plan(classes) }
func (t *timedResidency) Done()                    { t.r.Done() }

func (t *timedResidency) Acquire(ci int) {
	t0 := time.Now()
	t.r.Acquire(ci)
	d := time.Since(t0)
	t.mu.Lock()
	t.acquire += d
	t.acquires++
	t.open[ci] = t0
	t.mu.Unlock()
}

func (t *timedResidency) Release(ci int) {
	t.r.Release(ci)
	end := time.Now()
	t.mu.Lock()
	if t0, ok := t.open[ci]; ok {
		delete(t.open, ci)
		t.windows = append(t.windows, [2]time.Time{t0, end})
		t.maxWindow = max(t.maxWindow, end.Sub(t0))
	}
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
