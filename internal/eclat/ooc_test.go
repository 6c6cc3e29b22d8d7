package eclat

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/eqclass"
	"repro/internal/itemset"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// oocDataset persists a random database into a store dataset with a
// deliberately tiny segment size, so even a small test bundle spans many
// segments and partitions several tid-lists.
func oocDataset(t testing.TB, numTx int, segBytes int64) *store.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	d := testutil.RandomDB(rng, numTx, 30, 8)
	path := filepath.Join(t.TempDir(), "ooc.ds")
	if err := store.CreateDatasetSeg(path, store.DatasetMeta("ooc", "test", d), d, store.VerticalLists(d), segBytes); err != nil {
		t.Fatalf("CreateDatasetSeg: %v", err)
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatalf("OpenDataset: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestOOCMatchesInCoreExactly is the acceptance contract of the
// out-of-core path: for every representation, worker count and budget,
// a budgeted mine over the store mapping is byte-identical to the
// in-core mine AND reports exactly the same work counters — the budget
// changes paging behavior, never the algorithm.
func TestOOCMatchesInCoreExactly(t *testing.T) {
	const segBytes = 64
	ds := oocDataset(t, 250, segBytes)
	in := VerticalInput{NumTransactions: ds.NumTransactions(), Items: ds.Sets(tidlist.ReprSparse)}
	minsup := 3

	for _, repr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprRoaring} {
		opts := Options{Representation: repr, Workers: 1}
		want, wantSt, err := MineVerticalLocal(context.Background(), in, minsup, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := resultBytes(t, want)

		for _, budget := range []int64{segBytes, 2 * segBytes} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("repr=%v/budget=%d/workers=%d", repr, budget, workers)
				r := ds.NewResidency(budget)
				if r == nil {
					t.Fatalf("%s: NewResidency = nil (mapping %d bytes)", name, ds.BytesMapped())
				}
				bin := in
				bin.Residency = r
				got, st, err := MineVerticalLocal(context.Background(), bin, minsup,
					Options{Representation: repr, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(resultBytes(t, got), wantBytes) {
					t.Fatalf("%s: budgeted result differs from in-core", name)
				}
				if st.Intersections != wantSt.Intersections ||
					st.ShortCircuited != wantSt.ShortCircuited ||
					st.IntersectOps != wantSt.IntersectOps ||
					st.Classes != wantSt.Classes ||
					st.DiffsetClasses != wantSt.DiffsetClasses ||
					st.Kernel != wantSt.Kernel {
					t.Fatalf("%s: counters diverged from in-core:\n got %+v\nwant %+v", name, st, wantSt)
				}
				if n := r.ResidentSegments(); n != 0 {
					t.Fatalf("%s: %d segments still resident after the run", name, n)
				}
			}
		}
	}
}

// TestClassRefetchCounter pins the meaning of
// eclat_class_refetches_total: every class derives its pair lists from
// the item sets, but only a budgeted mine counts that as a refetch, so
// the counter advances by Stats.Classes under a residency and by 0
// without one.
func TestClassRefetchCounter(t *testing.T) {
	const segBytes = 64
	ds := oocDataset(t, 250, segBytes)
	in := VerticalInput{NumTransactions: ds.NumTransactions(), Items: ds.Sets(tidlist.ReprSparse)}
	for _, workers := range []int{1, 2} {
		for _, budgeted := range []bool{false, true} {
			bin := in
			if budgeted {
				bin.Residency = ds.NewResidency(segBytes)
			}
			before := mClassRefetches.Value()
			_, st, err := MineVerticalLocal(context.Background(), bin, 3, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if budgeted {
				want = int64(st.Classes)
			}
			if st.Classes == 0 {
				t.Fatalf("workers=%d: no classes mined", workers)
			}
			if got := mClassRefetches.Value() - before; got != want {
				t.Fatalf("workers=%d budgeted=%v: refetches advanced by %d, want %d", workers, budgeted, got, want)
			}
		}
	}
}

// TestOOCUnlimitedBudgetIsInCore pins the fallback: a budget the whole
// mapping fits under yields no residency tracker at all, so the caller
// mines in-core through the identical harness.
func TestOOCUnlimitedBudgetIsInCore(t *testing.T) {
	ds := oocDataset(t, 120, 64)
	if r := ds.NewResidency(ds.BytesMapped()); r != nil {
		t.Fatal("budget covering the whole mapping produced a residency tracker")
	}
}

// cutoffCtx is a context whose Err flips to context.Canceled after a
// fixed number of polls — a deterministic mid-mine cancellation,
// independent of timing.
type cutoffCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *cutoffCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestOOCCancelReleasesResidency proves the deferred Done runs on the
// cancellation path: a mine cut off mid-run under a tight budget leaves
// zero resident segments behind.
func TestOOCCancelReleasesResidency(t *testing.T) {
	const segBytes = 64
	ds := oocDataset(t, 250, segBytes)
	r := ds.NewResidency(segBytes)
	if r == nil {
		t.Fatal("NewResidency = nil")
	}
	in := VerticalInput{
		NumTransactions: ds.NumTransactions(),
		Items:           ds.Sets(tidlist.ReprSparse),
		Residency:       r,
	}
	// Let the L2 pass and a few classes through, then cancel.
	ctx := &cutoffCtx{Context: context.Background(), after: 40}
	_, _, err := MineVerticalLocal(ctx, in, 3, Options{Workers: 1})
	if err == nil {
		t.Fatal("cut-off mine returned nil error")
	}
	if n := r.ResidentSegments(); n != 0 {
		t.Fatalf("%d segments resident after canceled mine", n)
	}
}

// fakeResidency records the call protocol for scheduling unit tests.
type fakeResidency struct {
	segs     map[int]int
	acquired []int
	released []int
	planned  [][]int
	done     bool
}

func (f *fakeResidency) ItemSegment(item int) int {
	if s, ok := f.segs[item]; ok {
		return s
	}
	return -1
}
func (f *fakeResidency) Plan(classes [][]int) { f.planned = classes }
func (f *fakeResidency) Acquire(ci int)       { f.acquired = append(f.acquired, ci) }
func (f *fakeResidency) Release(ci int)       { f.released = append(f.released, ci) }
func (f *fakeResidency) Done()                { f.done = true }

func classOf(items ...int) eqclass.Class {
	var c eqclass.Class
	for _, it := range items[1:] {
		c.Members = append(c.Members, itemset.Itemset{itemset.Item(items[0]), itemset.Item(it)})
	}
	return c
}

// TestOrderClassesByLocality pins the scheduling key: classes sort by
// the smallest segment any of their items starts in, stably, with
// unknown-segment classes last.
func TestOrderClassesByLocality(t *testing.T) {
	res := &fakeResidency{segs: map[int]int{0: 5, 1: 5, 2: 0, 3: 0, 4: 2}}
	classes := []eqclass.Class{
		classOf(0, 1), // seg 5
		classOf(2, 3), // seg 0
		classOf(9, 8), // unknown
		classOf(4, 0), // min(2, 5) = 2
	}
	orderClassesByLocality(classes, res)
	want := [][2]int{{2, 3}, {4, 0}, {0, 1}, {9, 8}}
	for i, w := range want {
		got := classes[i].Members[0]
		if int(got[0]) != w[0] || int(got[1]) != w[1] {
			t.Fatalf("position %d: class %v, want %v", i, got, w)
		}
	}
}

// TestSpanScheduleCoversAllClassesContiguously checks the OOC deal:
// every class exactly once, in order, as contiguous per-worker spans.
func TestSpanScheduleCoversAllClassesContiguously(t *testing.T) {
	classes := make([]eqclass.Class, 13)
	for i := range classes {
		classes[i] = classOf(i, i+20, i+40)
	}
	for _, workers := range []int{1, 2, 3, 4, 16} {
		sched := spanSchedule(classes, workers)
		if len(sched) != workers {
			t.Fatalf("workers=%d: %d spans", workers, len(sched))
		}
		next := 0
		for w, span := range sched {
			for _, ci := range span {
				if ci != next {
					t.Fatalf("workers=%d: worker %d got class %d, want %d (non-contiguous deal)", workers, w, ci, next)
				}
				next++
			}
		}
		if next != len(classes) {
			t.Fatalf("workers=%d: %d of %d classes dealt", workers, next, len(classes))
		}
	}
}
