// Package eclat implements the paper's contribution: the Eclat
// (Equivalence CLass Transformation) algorithm for frequent-itemset
// mining, in a sequential form and in the four-phase parallel form of
// section 5 (initialization, transformation, asynchronous, final
// reduction), plus the hybrid host-level parallelization sketched as
// future work in section 8.1.
//
// The mining core is Compute_Frequent (figure 3): within an equivalence
// class, every pair of member tid-lists is intersected (short-circuited
// on the minimum support); surviving itemsets form the next level, which
// is recursively partitioned into classes by prefix. A class never needs
// more than its own current level in memory, and candidate pruning is
// deliberately absent — the paper found it "of little or no help" with
// the vertical layout (section 5.3).
package eclat

import (
	"context"
	"sort"

	"repro/internal/db"
	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/paircount"
	"repro/internal/tidlist"
)

// Global intersection-work counters (see /metricsz). They are flushed
// once per equivalence class — the hot inner loop still updates only the
// run-local Stats struct, so the atomics never appear on the
// per-intersection path. Kernel-dispatch counters (sparse vs roaring
// intersections, words touched, conversions) live in internal/tidlist
// and are flushed on the same per-class cadence.
const (
	mnIntersections = "eclat_intersections_total"
	mnShortCircuit  = "eclat_intersections_shortcircuited_total"
	mnIntersectOps  = "eclat_intersect_ops_total"
	mnTidlistBytes  = "eclat_tidlist_bytes_total"
	mnClasses       = "eclat_classes_total"
	mnDiffsetsUsed  = "eclat_diffset_classes_total"
)

var (
	mIntersections = obsv.Default.Counter(mnIntersections, "tid-list intersections attempted")
	mShortCircuit  = obsv.Default.Counter(mnShortCircuit, "intersections aborted early by the minimum-support bound")
	mIntersectOps  = obsv.Default.Counter(mnIntersectOps, "tid-set kernel operations performed (element comparisons or words)")
	mTidlistBytes  = obsv.Default.Counter(mnTidlistBytes, "tid-set bytes touched by intersections")
	mClasses       = obsv.Default.Counter(mnClasses, "top-level equivalence classes mined")
	mDiffsetsUsed  = obsv.Default.Counter(mnDiffsetsUsed, "sub-classes switched to the dEclat diffset representation")
)

// tidBytes is the in-memory size of one sparse tid-list element.
const tidBytes = 4 // sizeof(itemset.TID) — int32

// flushStats publishes the delta between two snapshots of a run's Stats
// to the global counters (prev is updated to cur's values).
func flushStats(prev, cur *Stats) {
	mIntersections.Add(cur.Intersections - prev.Intersections)
	mShortCircuit.Add(cur.ShortCircuited - prev.ShortCircuited)
	mIntersectOps.Add(cur.IntersectOps - prev.IntersectOps)
	mTidlistBytes.Add((cur.Kernel.SparseOps()-prev.Kernel.SparseOps())*tidBytes +
		(cur.Kernel.WordsTouched()-prev.Kernel.WordsTouched())*8 +
		(cur.Kernel.RoaringElemOps()-prev.Kernel.RoaringElemOps())*2)
	mDiffsetsUsed.Add(cur.DiffsetClasses - prev.DiffsetClasses)
	cur.Kernel.Flush(&prev.Kernel)
	*prev = *cur
}

// Options selects algorithm variants used by the ablation benchmarks.
// The zero value is the paper's algorithm.
type Options struct {
	// NoShortCircuit disables the minimum-support short-circuiting of
	// tid-list intersections (section 5.3).
	NoShortCircuit bool
	// RoundRobinSchedule replaces the greedy weighted class scheduling
	// (section 5.2.1) with naive round-robin dealing.
	RoundRobinSchedule bool
	// SupportWeightedSchedule replaces the C(s,2) class weight with a
	// support-aware estimate of the intersection work — sum over member
	// pairs of min(support_i, support_j) — the refinement the paper
	// suggests in section 5.2.1 ("We could also make use of the average
	// support of the itemsets within a class to get better weight
	// factors").
	SupportWeightedSchedule bool
	// ExternalTransform performs the vertical transformation through
	// bounded disk buffers instead of anonymous memory-mapped regions —
	// the improvement the paper reports as in progress ("we are currently
	// implementing an external memory transformation, keeping only small
	// buffers in main memory"). It trades one extra structured pass over
	// the tid-list data for immunity to paging, so it wins exactly when
	// the mapped regions would overflow host memory.
	ExternalTransform bool
	// Representation selects the tid-set representation the class
	// recursion mines through: ReprAuto (the zero value) decides per
	// equivalence class by density, ReprSparse forces the paper's sorted
	// slice with the scalar merge kernel, ReprRoaring forces the
	// containerized compressed kernels.
	Representation tidlist.Repr
	// NoDiffsets disables the dEclat diffset transition: every sub-class
	// carries full tid-lists even past the density break-even where
	// diffsets become the smaller encoding. The zero value (diffsets on)
	// is the default; the ablation benchmarks flip this to isolate the
	// transition's effect.
	NoDiffsets bool
	// DiffsetBreakEven overrides the density threshold at which a
	// sub-class switches to diffsets (see DefaultDiffsetBreakEven).
	// Zero means the measured default; values > 1 never switch (useful
	// in tests that pin the tid-list path without the NoDiffsets knob).
	DiffsetBreakEven float64
	// Workers is the number of real goroutines MineParallelLocal mines
	// with (0 means runtime.GOMAXPROCS(0)). MineMaximalOpts and
	// MineClosedOpts honor it too (0 means 1 there — their historical
	// sequential default); the simulated-cluster entry points ignore it.
	Workers int
	// TopK, when > 0, mines the k highest-support itemsets instead of a
	// fixed-threshold collection: the engine's support heap adaptively
	// raises the effective minimum support as itemsets are found, and
	// the result is truncated to k by support (ties broken
	// lexicographically). Output is byte-identical to a full mine at the
	// same floor followed by Result.TruncateTopK. Honored by the local
	// all-frequent entry points (MineSequentialOpts, MineParallelLocal,
	// MineVerticalLocal); the variant and cluster forms ignore it.
	TopK int
	// MustContain, when non-empty, restricts mining to itemsets
	// containing every listed item (a targeted query): equivalence
	// classes whose prefix cannot contain the items are skipped
	// entirely, and emissions are filtered. Output equals post-filtering
	// a full mine. Honored by the same entry points as TopK.
	MustContain []itemset.Item
}

// Stats counts the work of a sequential or shared-memory-parallel run
// (the simulated parallel forms report through cluster.Report instead).
type Stats struct {
	Scans          int
	Intersections  int64 // tid-set intersections attempted
	ShortCircuited int64 // intersections aborted by the support bound
	// IntersectOps counts kernel operations: element comparisons for the
	// sparse merge kernel, uint16 comparisons and 64-bit words touched
	// for the roaring containers (the per-kind split is in Kernel).
	IntersectOps int64
	Classes      int // top-level equivalence classes mined
	// Workers is the number of mining goroutines a MineParallelLocal run
	// used (1 for sequential runs).
	Workers int
	// Steals counts the work-stealing events of a MineParallelLocal run
	// (always 0 for sequential runs).
	Steals int64
	// DiffsetClasses counts the sub-classes the recursion switched to
	// the dEclat diffset representation (0 when Options.NoDiffsets is
	// set or nothing crossed the density break-even).
	DiffsetClasses int64
	// EffectiveMinSup is the minimum support the run ended at: the
	// caller's floor, raised by the top-k support heap when Options.TopK
	// is set (equal to the floor otherwise).
	EffectiveMinSup int
	// Kernel is the representation-dispatch accounting of the run: how
	// many intersections went to the sparse, mixed and roaring
	// kernels, their per-kind work units, and representation
	// conversions.
	Kernel tidlist.KernelStats
}

// merge folds a worker's counters into the run totals. Scans, Classes,
// Workers and Steals are run-level figures owned by the coordinator and
// are deliberately not summed.
func (s *Stats) merge(w *Stats) {
	s.Intersections += w.Intersections
	s.ShortCircuited += w.ShortCircuited
	s.IntersectOps += w.IntersectOps
	s.DiffsetClasses += w.DiffsetClasses
	s.Kernel.Add(w.Kernel)
}

// member is one itemset of the current level within a class, with its
// tid-set (sparse or roaring, per the class's chosen representation).
type member struct {
	set  itemset.Itemset
	tids tidlist.Set
}

// computeFrequent is figure 3: mine everything derivable from one
// equivalence class. members must be lexicographically sorted and share a
// common prefix of len(set)-1 items. emit is called for every frequent
// itemset found (sets of size len(members[0].set)+1 and deeper).
//
// Cancellation is checked once per sub-class (each iteration of the
// i-loop opens the class prefixed by members[i].set), never inside the
// intersection inner loop, so an expired ctx stops the search promptly
// without per-intersection overhead. On cancellation the walk simply
// unwinds; the caller is responsible for reporting ctx.Err().
//
// ar is the caller's scratch arena; a sub-class's member slice and
// surviving tid-set clones are carved from it and released when the
// recursion unwinds past the sub-class, so the steady state allocates
// nothing per itemset (ar may be nil: heap allocation, same results).
//
// th is the pruning bound, re-read once per sub-class so a top-k run
// picks up threshold raises promptly; with a fixed threshold the reads
// are constant and the kernel call sequence is identical to mining
// against a plain minsup.
func computeFrequent(ctx context.Context, members []member, th *threshold, st *Stats, opts Options, ar *arena, emit Emitter) {
	// Pairing member i with each j > i yields the class prefixed by
	// members[i].set, so the recursion needs no separate partitioning
	// pass: the i-loop enumerates the next level's classes directly.
	//
	// scratch is whatever set the last kernel call returned; the dispatch
	// functions recover its storage when the representation matches, so
	// the buffer-reuse discipline of the sparse-only loop survives the
	// abstraction.
	breakEven := diffsetBreakEven(opts)
	var span int
	if breakEven > 0 {
		span = classSpan(members)
	}
	var scratch tidlist.Set
	for i := 0; i < len(members)-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := th.current()
		if breakEven > 0 && diffsetWins(members, i, span, breakEven) {
			st.DiffsetClasses++
			diffTransition(ctx, members, i, th, st, ar, nil, emit)
			continue
		}
		mark := ar.mark()
		next := ar.nextMembers(len(members) - 1 - i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			var tids tidlist.Set
			var ops int
			var ok bool
			if opts.NoShortCircuit {
				tids, ops = tidlist.IntersectSets(scratch, members[i].tids, members[j].tids, &st.Kernel)
				ok = tids.Support() >= minsup
			} else {
				tids, ops, ok = tidlist.IntersectSetsSC(scratch, members[i].tids, members[j].tids, minsup, &st.Kernel)
			}
			st.IntersectOps += int64(ops)
			scratch = tids
			if !ok {
				st.ShortCircuited++
				continue
			}
			next = append(next, member{
				set:  members[i].set.Join(members[j].set),
				tids: ar.cloneSet(tids),
			})
		}
		for _, m := range next {
			emit(m.set, m.tids.Support())
		}
		if len(next) > 1 {
			computeFrequent(ctx, next, th, st, opts, ar, emit)
		}
		ar.release(mark)
	}
}

// DefaultDiffsetBreakEven is the measured density break-even of the
// dEclat diffset transition: when the estimated support retention of a
// sub-class's children (partner density over the class span) reaches
// this fraction, d(PXY) = t(PX) \ t(PY) is smaller than t(PXY) and the
// difference kernels touch fewer bytes per level than the intersection
// kernels at the same support. The 0.5 crossover follows directly from
// |d(PXY)| = sup(PX) - sup(PXY): the diffset is the smaller encoding
// exactly when a child keeps more than half its parent's tids, and the
// kernel measurements in BENCH_kernels.json (see EXPERIMENTS.md) put
// the measured ns/op crossing at the same grid point — diff beats
// intersect from the 50% density row down to ~12.5% only on bytes
// touched in deeper levels, and on both bytes and first-transition cost
// at ≥ 50%.
const DefaultDiffsetBreakEven = 0.5

// diffsetBreakEven resolves the run's diffset-transition threshold:
// 0 disables the transition entirely.
func diffsetBreakEven(opts Options) float64 {
	if opts.NoDiffsets {
		return 0
	}
	if opts.DiffsetBreakEven > 0 {
		return opts.DiffsetBreakEven
	}
	return DefaultDiffsetBreakEven
}

// classSpan is the tid span covered by a class's members — the density
// denominator shared by the representation policy and the diffset gate.
func classSpan(members []member) int {
	lo, hi, any := itemset.TID(0), itemset.TID(0), false
	for _, m := range members {
		l, h, ok := tidlist.Bounds(m.tids)
		if !ok {
			continue
		}
		if !any || l < lo {
			lo = l
		}
		if !any || h > hi {
			hi = h
		}
		any = true
	}
	if !any {
		return 0
	}
	return int(hi-lo) + 1
}

// diffsetWins estimates whether the children of members[i] will retain
// enough of their parent's support for diffsets to be the smaller
// encoding: under independence a child PXY keeps a fraction of t(PX)
// close to the partner's density sup(PY)/span, so the partners' average
// density is the retention estimate compared against the break-even.
func diffsetWins(members []member, i, span int, breakEven float64) bool {
	if span <= 0 {
		return false
	}
	sum := 0
	for j := i + 1; j < len(members); j++ {
		sum += members[j].tids.Support()
	}
	n := len(members) - 1 - i
	return float64(sum) >= breakEven*float64(span)*float64(n)
}

// diffTransition opens the sub-class prefixed by members[i] in diffset
// form — the dEclat first transition: each child carries
// d(PXY) = t(PX) \ t(PY) with sup(PXY) = sup(PX) - |d(PXY)|, and the
// recursion below continues in computeFrequentDiffCtx. The emitted
// (itemset, support) pairs are identical to the tid-list path's (tested
// property); only the intermediate encoding differs.
//
// lb, when non-nil, accumulates the bytes of every kept diffset — the
// DiffStats.ListBytes figure of the pure-diffset policy. The automatic
// transition inside computeFrequent passes nil (Stats has no such
// figure, keeping its counters exactly as before the engine refactor).
func diffTransition(ctx context.Context, members []member, i int, th *threshold, st *Stats, ar *arena, lb *int64, emit Emitter) {
	minsup := th.current()
	mark := ar.mark()
	defer ar.release(mark)
	var scratch tidlist.Set
	next := make([]dmember, 0, len(members)-1-i)
	supI := members[i].tids.Support()
	for j := i + 1; j < len(members); j++ {
		st.Intersections++
		diffs, ops := tidlist.DiffSets(scratch, members[i].tids, members[j].tids, &st.Kernel)
		st.IntersectOps += int64(ops)
		scratch = diffs
		sup := supI - diffs.Support()
		if sup < minsup {
			continue
		}
		kept := ar.cloneSet(diffs)
		if lb != nil {
			*lb += kept.SizeBytes()
		}
		next = append(next, dmember{
			set:   members[i].set.Join(members[j].set),
			diffs: kept,
			sup:   sup,
		})
	}
	for _, m := range next {
		emit(m.set, m.sup)
	}
	if len(next) > 1 {
		computeFrequentDiffCtx(ctx, next, th, st, ar, lb, emit)
	}
}

// computeFrequentDiffCtx is computeFrequent in diffset form: members
// share a common prefix and carry diffsets relative to their shared
// parent, with d(PXY) = d(PY) \ d(PX) and
// sup(PXY) = sup(PX) - |d(PXY)|. There is no §5.3 short-circuit here —
// the support is known only after the full difference — but the sets
// shrink level over level instead of the supports, which is exactly the
// trade the break-even gate prices.
func computeFrequentDiffCtx(ctx context.Context, members []dmember, th *threshold, st *Stats, ar *arena, lb *int64, emit Emitter) {
	var scratch tidlist.Set
	for i := 0; i < len(members)-1; i++ {
		if ctx.Err() != nil {
			return
		}
		minsup := th.current()
		mark := ar.mark()
		next := make([]dmember, 0, len(members)-1-i)
		for j := i + 1; j < len(members); j++ {
			st.Intersections++
			diffs, ops := tidlist.DiffSets(scratch, members[j].diffs, members[i].diffs, &st.Kernel)
			st.IntersectOps += int64(ops)
			scratch = diffs
			sup := members[i].sup - diffs.Support()
			if sup < minsup {
				continue
			}
			kept := ar.cloneSet(diffs)
			if lb != nil {
				*lb += kept.SizeBytes()
			}
			next = append(next, dmember{
				set:   members[i].set.Join(members[j].set),
				diffs: kept,
				sup:   sup,
			})
		}
		for _, m := range next {
			emit(m.set, m.sup)
		}
		if len(next) > 1 {
			computeFrequentDiffCtx(ctx, next, th, st, ar, lb, emit)
		}
		ar.release(mark)
	}
}

// applyClassRepr resolves repr against the class's density and, when the
// outcome is roaring, re-encodes every member in place.
func applyClassRepr(members []member, repr tidlist.Repr, ks *tidlist.KernelStats) {
	chosen := repr
	if repr == tidlist.ReprAuto {
		if len(members) == 0 {
			return
		}
		span := classSpan(members)
		if span == 0 {
			return
		}
		sum := 0
		for _, m := range members {
			sum += m.tids.Support()
		}
		chosen = tidlist.ChooseRepr(repr, sum/len(members), span)
	}
	if chosen == tidlist.ReprRoaring {
		for i := range members {
			members[i].tids = tidlist.Convert(members[i].tids, chosen, ks)
		}
	}
}

// MineSequential runs Eclat on a single processor: one pass for global
// item and 2-itemset counts, one pass to invert the database into
// per-item tid-lists, then in-memory class-by-class mining, where each
// class task builds its own pair tid-lists from the item lists. This is
// in-core mining: the out-of-core engine with no residency budget. Like
// the parallel form it reads the horizontal data twice; the third "scan"
// of the paper (reading the inverted lists back from disk) has no
// in-memory counterpart here.
//
// This is the convenience form for tests, benchmarks and experiments: no
// cancellation (background context) and the paper's default options. The
// canonical context-first entry point is MineSequentialOpts.
func MineSequential(d *db.Database, minsup int) (*mining.Result, Stats) {
	res, st, _ := MineSequentialOpts(context.Background(), d, minsup, Options{})
	return res, st
}

// MineSequentialOpts is the canonical context-first sequential entry
// point: MineSequential with explicit variant options and cooperative
// cancellation. ctx is consulted between equivalence classes (see
// computeFrequent), so a cancel or deadline stops the mine promptly
// without slowing the intersection inner loop. On cancellation it
// returns (nil, partial stats, ctx.Err()).
func MineSequentialOpts(ctx context.Context, d *db.Database, minsup int, opts Options) (*mining.Result, Stats, error) {
	return mineSequential(ctx, d, minsup, opts, &arena{})
}

// mineSequential is MineSequentialOpts with an explicit (possibly nil)
// scratch arena, the knob the allocation benchmarks use to measure the
// arena's effect.
func mineSequential(ctx context.Context, d *db.Database, minsup int, opts Options, ar *arena) (*mining.Result, Stats, error) {
	if minsup < 1 {
		minsup = 1
	}
	var st Stats
	st.Workers = 1
	v := buildVertical(ctx, d, minsup, &st, opts)
	eng := newEngine(v, minsup, opts, policyAll{})
	if _, err := eng.run(ctx, 1, &st, ar, v.res.Add); err != nil {
		return nil, st, err
	}
	eng.finish(v.res, &st)
	return v.res, st, nil
}

// vertical is the output of the initialization and transformation phases
// shared by every class-decomposable entry point: the result seeded with
// L1 and L2, the pruned equivalence classes, and the per-item tid-sets
// each class derives its pair tid-lists from when it is mined. In-core
// mining is the case with no residency.
type vertical struct {
	res     *mining.Result
	classes []eqclass.Class
	// items holds the tid-set of every item a class reads (index = item
	// id); they are operands only, never kernel scratch, because store
	// sets are read-only mapped views.
	items  []tidlist.Set
	minsup int
	// residency, when non-nil, marks a budgeted out-of-core run: classes
	// are in bundle-locality order and every class mine is bracketed by
	// Acquire/Release (see ooc.go).
	residency Residency
	// roots, when non-nil, holds pre-assembled member lists (one per
	// class) instead of pair tid-lists — the CHARM root level, whose
	// members are frequent singletons rather than L2 pairs.
	roots [][]member
}

// members assembles the sorted, representation-resolved member list of
// class ci — the one entry every engine driver fetches class operands
// through. An L2 class's pair tid-lists are derived here, inside the
// class task (and its residency window), by intersecting the item sets.
// The derivation charges a throwaway kernel-stats block: the pairs were
// already counted during L2, so only the representation conversion
// charges ks, and the work counters do not depend on where a pair list
// came from. With ReprAuto the class density (average member support
// over the class's tid span) then decides between sparse and roaring —
// the decision is as localized as the class computation itself.
func (v *vertical) members(ci int, repr tidlist.Repr, ks *tidlist.KernelStats) []member {
	if v.roots != nil {
		m := v.roots[ci]
		applyClassRepr(m, repr, ks)
		return m
	}
	if v.residency != nil {
		mClassRefetches.Inc()
	}
	class := &v.classes[ci]
	var derive tidlist.KernelStats
	var scratch tidlist.Set
	out := make([]member, 0, len(class.Members))
	for _, set := range class.Members {
		tids, _, ok := tidlist.IntersectSetsSC(scratch, v.items[set[0]], v.items[set[1]], v.minsup, &derive)
		scratch = tids
		if !ok {
			// Unreachable in practice: only pairs that passed minsup
			// during L2 become class members, and the item sets have not
			// changed since.
			continue
		}
		out = append(out, member{set: set, tids: append(tidlist.List(nil), tidlist.TIDsOf(tids)...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].set.Less(out[j].set) })
	applyClassRepr(out, repr, ks)
	return out
}

// buildVertical runs the one-scan initialization (global 1- and 2-itemset
// counts) and the vertical transformation (per-item tid-lists for the
// items the surviving classes read), recording the two phases on the ctx
// trace and charging st.Scans/st.Classes. A targeted query
// (opts.MustContain) filters the seeded L1/L2 itemsets and drops the
// equivalence classes whose prefix cannot contain the items — their
// items are inverted only if another class reads them.
func buildVertical(ctx context.Context, d *db.Database, minsup int, st *Stats, opts Options) *vertical {
	must := canonMust(opts.MustContain)
	res := &mining.Result{MinSup: minsup, NumTransactions: d.Len()}
	tr := obsv.TraceFrom(ctx)

	// Initialization: count 1-itemsets (for the result; Eclat itself never
	// needs them) and all 2-itemsets via the triangular array.
	sp := tr.Start("initialization")
	st.Scans++
	itemCounts := make([]int, d.NumItems)
	pc := paircount.New(d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			itemCounts[it]++
		}
		pc.AddTransaction(tx.Items)
	}
	for it, c := range itemCounts {
		if c >= minsup && (must == nil || containsAll(itemset.Itemset{itemset.Item(it)}, must)) {
			res.Add(itemset.Itemset{itemset.Item(it)}, c)
		}
	}
	freqPairs := pc.Frequent(minsup)
	l2 := make([]itemset.Itemset, 0, len(freqPairs))
	for _, fp := range freqPairs {
		set := fp.Pair.Itemset()
		if must == nil || containsAll(set, must) {
			res.Add(set, fp.Count)
		}
		l2 = append(l2, set)
	}
	sp.End()

	// Transformation: invert the database for the items of every class
	// with at least two members (singleton classes generate no
	// candidates). Pair tid-lists are derived per class when it is mined.
	sp = tr.Start("transformation")
	classes := filterClasses(eqclass.PruneSingletons(eqclass.Partition(l2)), must)
	st.Classes = len(classes)
	keep := make([]bool, d.NumItems)
	for _, c := range classes {
		for _, m := range c.Members {
			keep[m[0]], keep[m[1]] = true, true
		}
	}
	st.Scans++
	items := make([]tidlist.Set, d.NumItems)
	for it, l := range tidlist.BuildItems(d, keep) {
		if l != nil {
			items[it] = l
		}
	}
	sp.End()

	return &vertical{res: res, classes: classes, items: items, minsup: minsup}
}
