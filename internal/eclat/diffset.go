package eclat

import (
	"context"

	"repro/internal/db"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// DiffStats reports the work of a diffset run, with the byte volumes that
// make the representational trade-off visible.
type DiffStats struct {
	Scans         int
	Intersections int64 // set operations (differences) performed
	DiffOps       int64 // kernel operations in differences (comparisons or words)
	// ListBytes is the total bytes of all intermediate sets materialized
	// during the class recursion (diffsets here, in their chosen encoding;
	// compare with the tid-list bytes of the standard algorithm at the
	// same support).
	ListBytes int64
	// Kernel is the representation-dispatch accounting (see Stats.Kernel).
	Kernel tidlist.KernelStats
}

// dmember is one itemset of the current level, represented by its diffset
// relative to its generating parent and its exact support.
type dmember struct {
	set   itemset.Itemset
	diffs tidlist.Set
	sup   int
}

// MineSequentialDiffsetsOpts runs Eclat with the diffset representation —
// the dEclat refinement Zaki published as the successor of this paper's
// algorithm. Instead of carrying each itemset's full tid-list, the
// recursion carries the *difference* from its parent: for class prefix P,
//
//	d(PXY) = t(PX) \ t(PY)        at the first level, and
//	d(PXY) = d(PY) \ d(PX)        below it,
//	sup(PXY) = sup(PX) - |d(PXY)|.
//
// Deep in a class supports shrink slowly, so diffsets are much smaller
// than tid-lists and the class recursion touches far fewer bytes; the
// output is identical to MineSequentialOpts's (tested property). The
// diffset policy runs on the class-task engine; this entry point mines
// sequentially (Workers is ignored, honoring the name), and TopK and
// MustContain are ignored like the other variant forms. Under the roaring
// encoding the differences use the container AND NOT kernels.
func MineSequentialDiffsetsOpts(ctx context.Context, d *db.Database, minsup int, opts Options) (*mining.Result, DiffStats, error) {
	if minsup < 1 {
		minsup = 1
	}
	opts.TopK, opts.MustContain = 0, nil
	var st Stats
	st.Workers = 1

	v := buildVertical(ctx, d, minsup, &st, opts)
	eng := newEngine(v, minsup, opts, policyDiffsets{})
	ext, err := eng.run(ctx, 1, &st, &arena{}, v.res.Add)
	de := ext.(*diffExt)
	dst := DiffStats{
		Scans:         st.Scans,
		Intersections: st.Intersections,
		DiffOps:       st.IntersectOps,
		ListBytes:     de.listBytes,
		Kernel:        st.Kernel,
	}
	if err != nil {
		return nil, dst, err
	}
	v.res.Sort()
	return v.res, dst, nil
}
