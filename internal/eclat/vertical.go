package eclat

import (
	"context"
	"runtime"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obsv"
	"repro/internal/tidlist"
)

// VerticalInput is a dataset already in the paper's vertical layout: one
// tid-set per item, as served zero-copy by the persistent store
// (internal/store) or memoized by the service registry. Mining from it
// skips the horizontal scans entirely — the property the store exists to
// buy — and the sets are treated as immutable operands throughout (a
// mapped view must never be written, so they are never used as kernel
// scratch).
type VerticalInput struct {
	// NumTransactions is |D|, needed for percentage supports.
	NumTransactions int
	// Items holds the tid-set of each item (index = item id); nil entries
	// are items with no transactions.
	Items []tidlist.Set
	// Residency, when non-nil, switches the mine to the budgeted
	// out-of-core protocol: classes are ordered by bundle locality and
	// every class mine is bracketed by Acquire/Release, so each class
	// builds its pair tid-lists inside its residency window and the store
	// can evict dead segments. Nil is in-core mining: the same engine
	// with no budget. Output bytes are identical at every budget and
	// worker count.
	Residency Residency
}

// MineVerticalLocal mines a vertical dataset on this host: L1 is read
// off the per-item supports, L2 comes from pairwise short-circuited
// intersections of the frequent items' tid-sets, and the class recursion
// then proceeds exactly as in MineSequential/MineParallelLocal (whose
// class-mining cores it shares), each class task building its pair
// tid-lists from the item sets. in.Residency nil is in-core mining; a
// residency adds the budgeted out-of-core protocol. The result is
// byte-identical to mining the corresponding horizontal database with
// the same minsup and options: both paths produce the same L1/L2 (a pair
// is frequent in the intersection iff its co-occurrence count passes
// minsup) and the same sorted pair tid-lists, and Result.Sort imposes
// the canonical order.
//
// Stats.Scans is always 0 — no horizontal pass happens — which is the
// figure restart-without-rebuild tests assert on. opts.Workers > 1 mines
// classes with the work-stealing pool; ≤ 1 mines sequentially.
func MineVerticalLocal(ctx context.Context, in VerticalInput, minsup int, opts Options) (*mining.Result, Stats, error) {
	if minsup < 1 {
		minsup = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var st Stats
	st.Workers = workers
	if in.Residency != nil {
		// Done on every exit path — error, cancellation, success — so a
		// cut-short mine never leaves segments accounted resident.
		defer in.Residency.Done()
	}
	v := buildVerticalFromSets(ctx, in, minsup, &st, opts)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	eng := newEngine(v, minsup, opts, policyAll{})
	if _, err := eng.run(ctx, workers, &st, &arena{}, v.res.Add); err != nil {
		return nil, st, err
	}
	eng.finish(v.res, &st)
	return v.res, st, nil
}

// buildVerticalFromSets is buildVertical's counterpart for data that is
// already vertical: the same (res, classes, items) bundle, built from
// per-item tid-sets instead of horizontal scans. Everything — L1, L2,
// class partitioning — happens under the "initialization" span; there is
// no transformation phase because the data arrives transformed, so
// tracing-based tests can assert the phase never ran. Targeted queries
// (opts.MustContain) filter the seeded L1/L2 and the classes exactly as
// buildVertical does; the pairwise L2 intersections still all run, so
// the work counters of the init phase stay query-independent.
func buildVerticalFromSets(ctx context.Context, in VerticalInput, minsup int, st *Stats, opts Options) *vertical {
	must := canonMust(opts.MustContain)
	res := &mining.Result{MinSup: minsup, NumTransactions: in.NumTransactions}
	tr := obsv.TraceFrom(ctx)
	sp := tr.Start("initialization")
	defer sp.End()

	frequent := make([]int, 0, len(in.Items))
	for it, s := range in.Items {
		if s == nil {
			continue
		}
		if c := s.Support(); c >= minsup {
			if must == nil || containsAll(itemset.Itemset{itemset.Item(it)}, must) {
				res.Add(itemset.Itemset{itemset.Item(it)}, c)
			}
			frequent = append(frequent, it)
		}
	}

	// L2: pairwise intersections over frequent items, short-circuited on
	// minsup. Aborted and surviving results alike live only in scratch:
	// each class derives its pair lists from the item sets when it is
	// mined (see vertical.members).
	var scratch tidlist.Set
	var l2 []itemset.Itemset
	for i := 0; i < len(frequent) && ctx.Err() == nil; i++ {
		a := frequent[i]
		for j := i + 1; j < len(frequent); j++ {
			b := frequent[j]
			st.Intersections++
			tids, ops, ok := tidlist.IntersectSetsSC(scratch, in.Items[a], in.Items[b], minsup, &st.Kernel)
			st.IntersectOps += int64(ops)
			scratch = tids
			if !ok {
				st.ShortCircuited++
				continue
			}
			set := itemset.Itemset{itemset.Item(a), itemset.Item(b)}
			if must == nil || containsAll(set, must) {
				res.Add(set, tids.Support())
			}
			l2 = append(l2, set)
		}
	}

	classes := filterClasses(eqclass.PruneSingletons(eqclass.Partition(l2)), must)
	st.Classes = len(classes)
	if in.Residency != nil {
		// Store-aware scheduling: run classes in bundle-segment order
		// (the canonical result sort makes class order invisible in the
		// output), then hand the per-class item needs to the residency
		// layer. Indices in the plan are final class indices.
		orderClassesByLocality(classes, in.Residency)
		planResidency(classes, in.Residency)
	}
	return &vertical{res: res, classes: classes, items: in.Items, minsup: minsup, residency: in.Residency}
}
