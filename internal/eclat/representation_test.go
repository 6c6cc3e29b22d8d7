package eclat

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// reprVariants runs every eclat-family miner under a given
// representation. The parallel entries build a fresh simulated cluster
// per run, as Cluster clocks are single-use.
var reprVariants = []struct {
	name string
	mine func(d *db.Database, minsup int, opts Options) *mining.Result
}{
	{"sequential", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _, _ := MineSequentialOpts(context.Background(), d, minsup, opts)
		return res
	}},
	{"parallel", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"hybrid", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineHybridOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"maximal", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _, _ := MineMaximalOpts(context.Background(), d, minsup, opts)
		return res
	}},
	{"maximal-parallel", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _ := MineMaximalParallelOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		return res
	}},
	{"closed", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _, _ := MineClosedOpts(context.Background(), d, minsup, opts)
		return res
	}},
	{"charm", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _, _ := MineClosedCHARMOpts(context.Background(), d, minsup, opts)
		return res
	}},
	{"diffsets", func(d *db.Database, minsup int, opts Options) *mining.Result {
		res, _, _ := MineSequentialDiffsetsOpts(context.Background(), d, minsup, opts)
		return res
	}},
}

var allReprs = []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprRoaring, tidlist.ReprAuto}

// TestAllVariantsAgreeAcrossRepresentations is the acceptance criterion
// for the representation layer: every eclat variant must produce
// identical itemsets under sparse, roaring, and auto. The minsup sweep
// includes values high enough to trigger short-circuit aborts on most
// candidates, so a partial prefix leaking into a result would break the
// equality.
func TestAllVariantsAgreeAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dbs := []*db.Database{
		testutil.RandomDB(rng, 120, 10, 6), // dense: auto goes roaring
		testutil.RandomDB(rng, 400, 25, 5), // sparser classes
		gen.MustGenerate(gen.T10I6(500)),   // paper-style synthetic data
	}
	for di, d := range dbs {
		for _, minsup := range []int{2, 5, d.Len() / 8, d.Len() / 3} {
			if minsup < 1 {
				continue
			}
			for _, v := range reprVariants {
				want := v.mine(d, minsup, Options{Representation: tidlist.ReprSparse})
				for _, r := range allReprs[1:] {
					got := v.mine(d, minsup, Options{Representation: r})
					if !mining.Equal(got, want) {
						t.Fatalf("db %d minsup %d variant %s: %v differs from sparse:\n%s",
							di, minsup, v.name, r, mining.Diff(got, want))
					}
				}
			}
		}
	}
}

// TestRepresentationsMatchBruteForce anchors the full-mining variants to
// ground truth, not just to each other.
func TestRepresentationsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	d := testutil.RandomDB(rng, 100, 12, 6)
	for _, minsup := range []int{2, 4, 8} {
		want := testutil.BruteForce(d, minsup)
		for _, r := range allReprs {
			got, _, _ := MineSequentialOpts(context.Background(), d, minsup, Options{Representation: r})
			if !mining.Equal(got, want) {
				t.Fatalf("minsup %d repr %v differs from brute force:\n%s", minsup, r, mining.Diff(got, want))
			}
		}
	}
}

// TestBitsetRunDispatchesDenseKernel guards the "bitset" name: it
// parses as roaring, and a run under it on dense data must stream words
// through roaring's bitmap containers — the dense word kernel — rather
// than fall back to the sparse merge.
func TestBitsetRunDispatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	d := testutil.RandomDB(rng, 200, 12, 7)
	repr, err := tidlist.ParseRepr("bitset")
	if err != nil || repr != tidlist.ReprRoaring {
		t.Fatalf(`ParseRepr("bitset") = %v, %v; want roaring`, repr, err)
	}
	_, st, _ := MineSequentialOpts(context.Background(), d, 4, Options{Representation: repr})
	if st.Intersections == 0 {
		t.Skip("no intersections at this support; adjust test data")
	}
	if st.Kernel.RoaringIntersections() == 0 {
		t.Fatal(`"bitset" run performed no containerized dispatches`)
	}
	if st.Kernel.WordsTouched() == 0 {
		t.Fatal(`"bitset" run on dense data touched no bitmap words`)
	}
	// A sparse run on the same data must not touch the word kernel.
	_, st, _ = MineSequentialOpts(context.Background(), d, 4, Options{Representation: tidlist.ReprSparse})
	if st.Kernel.RoaringIntersections() != 0 || st.Kernel.WordsTouched() != 0 {
		t.Fatal("explicit sparse run dispatched to the word kernel")
	}
}

// TestAdaptivePolicySwitchesByDensity pins the auto policy's two sides
// on data engineered to sit on either side of DenseThreshold.
func TestAdaptivePolicySwitchesByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// Dense: 10 items over 120 transactions, every class far above 1/32
	// density, so auto must pack classes into roaring.
	dense := testutil.RandomDB(rng, 120, 8, 6)
	_, st, _ := MineSequentialOpts(context.Background(), dense, 2, Options{Representation: tidlist.ReprAuto})
	if st.Intersections > 0 && (st.Kernel.RoaringIntersections() == 0 || st.Kernel.WordsTouched() == 0) {
		t.Fatal("auto on dense data never used roaring's bitmap kernel")
	}
	// Sparse: supports near minsup over a wide tid range keep density
	// far below the threshold, so auto must stay on the merge kernel.
	sparse := testutil.RandomDB(rng, 4000, 120, 4)
	_, st, _ = MineSequentialOpts(context.Background(), sparse, 2, Options{Representation: tidlist.ReprAuto})
	if st.Kernel.RoaringIntersections() != 0 {
		t.Fatalf("auto on sparse data dispatched %d roaring intersections", st.Kernel.RoaringIntersections())
	}
}

// TestRoaringRunDispatchesContainerKernel guards the explicit roaring
// path: an explicit roaring run must record containerized
// dispatches and container work, and a sparse run must record none.
func TestRoaringRunDispatchesContainerKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	d := testutil.RandomDB(rng, 200, 12, 7)
	_, st, _ := MineSequentialOpts(context.Background(), d, 4, Options{Representation: tidlist.ReprRoaring})
	if st.Intersections == 0 {
		t.Skip("no intersections at this support; adjust test data")
	}
	if st.Kernel.RoaringIntersections() == 0 {
		t.Fatal("explicit roaring run performed no containerized dispatches")
	}
	if st.Kernel.RoaringElemOps()+st.Kernel.WordsTouched() == 0 {
		t.Fatal("containerized dispatches must record container work")
	}
	_, st, _ = MineSequentialOpts(context.Background(), d, 4, Options{Representation: tidlist.ReprSparse})
	if st.Kernel.RoaringIntersections() != 0 {
		t.Fatal("explicit sparse run dispatched to the roaring kernel")
	}
}

// TestDiffsetTransitionByDensity pins the dEclat gate's two sides: dense
// classes (children retain most of their parent's support) must switch
// sub-classes to diffsets by default, the NoDiffsets ablation must not,
// and both must mine identical itemsets under every representation.
func TestDiffsetTransitionByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	// Each transaction keeps all but one of 6 items: every pair retains
	// ~2/3 of the transactions and every extension ~3/4 of its parent,
	// comfortably above the 0.5 break-even.
	dense := &db.Database{NumItems: 6}
	for i := 0; i < 200; i++ {
		drop := rng.Intn(6)
		var items []itemset.Item
		for it := 0; it < 6; it++ {
			if it != drop {
				items = append(items, itemset.Item(it))
			}
		}
		dense.Transactions = append(dense.Transactions, db.Transaction{
			TID:   itemset.TID(i),
			Items: itemset.New(items...),
		})
	}
	for _, r := range allReprs {
		want, stOff, _ := MineSequentialOpts(context.Background(), dense, 2,
			Options{Representation: r, NoDiffsets: true})
		if stOff.DiffsetClasses != 0 {
			t.Fatalf("repr %v: NoDiffsets run still switched %d sub-classes", r, stOff.DiffsetClasses)
		}
		got, stOn, _ := MineSequentialOpts(context.Background(), dense, 2, Options{Representation: r})
		if stOn.DiffsetClasses == 0 {
			t.Fatalf("repr %v: dense data never crossed the diffset break-even", r)
		}
		if !mining.Equal(got, want) {
			t.Fatalf("repr %v: diffset-first output differs from tid-list output:\n%s",
				r, mining.Diff(got, want))
		}
	}
	// Sparse data sits far below the break-even: the default must keep
	// tid-lists so the §5.3 short-circuit stays in play.
	sparse := testutil.RandomDB(rng, 4000, 120, 4)
	_, st, _ := MineSequentialOpts(context.Background(), sparse, 2, Options{Representation: tidlist.ReprAuto})
	if st.DiffsetClasses != 0 {
		t.Fatalf("sparse data switched %d sub-classes to diffsets below the break-even", st.DiffsetClasses)
	}
	// A break-even above 1 can never be met by a retention estimate.
	_, st, _ = MineSequentialOpts(context.Background(), dense, 2,
		Options{Representation: tidlist.ReprAuto, DiffsetBreakEven: 1.5})
	if st.DiffsetClasses != 0 {
		t.Fatalf("DiffsetBreakEven 1.5 still switched %d sub-classes", st.DiffsetClasses)
	}
}

// TestParallelReportTaggedWithRepresentation checks the cluster report
// carries the representation it was mined through, for all parallel
// variants.
func TestParallelReportTaggedWithRepresentation(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(400))
	minsup := d.MinSupCount(1.0)
	for _, r := range allReprs {
		opts := Options{Representation: r}
		_, rep := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("Mine report representation %q, want %q", rep.Representation, r)
		}
		_, rep = MineHybridOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("hybrid report representation %q, want %q", rep.Representation, r)
		}
		_, rep = MineMaximalParallelOpts(cluster.New(cluster.Default(2, 2)), d, minsup, opts)
		if rep.Representation != r.String() {
			t.Fatalf("maximal report representation %q, want %q", rep.Representation, r)
		}
	}
}

// TestPayloadSplitAccounted checks the transformation-phase exchange
// records its per-representation payload split: under an explicit
// encoding all payload bytes land on that side, and the split never
// exceeds the total network volume.
func TestPayloadSplitAccounted(t *testing.T) {
	d := gen.MustGenerate(gen.T10I6(400))
	minsup := d.MinSupCount(1.0)
	for _, r := range allReprs {
		_, rep := MineOpts(cluster.New(cluster.Default(2, 2)), d, minsup, Options{Representation: r})
		sparse := rep.Merged.NetBytesSparse
		dense := rep.Merged.NetBytesDense
		if sparse+dense == 0 {
			t.Fatalf("repr %v: no payload split recorded", r)
		}
		if sparse+dense > rep.Merged.NetBytes {
			t.Fatalf("repr %v: payload split %d exceeds total net bytes %d", r, sparse+dense, rep.Merged.NetBytes)
		}
		switch r {
		case tidlist.ReprSparse:
			if dense != 0 {
				t.Fatalf("sparse run shipped %d dense payload bytes", dense)
			}
		case tidlist.ReprRoaring:
			if sparse != 0 {
				t.Fatalf("roaring run shipped %d sparse payload bytes", sparse)
			}
		}
	}
}
