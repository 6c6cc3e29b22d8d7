package service

import (
	"bytes"
	"context"
	"testing"

	"repro"
	"repro/internal/tidlist"
)

// TestServiceRepresentationsDistinctEntriesSameResult checks that the
// cache keeps per-representation entries apart (the key includes the
// representation) while every representation mines identical itemsets.
func TestServiceRepresentationsDistinctEntriesSameResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, 400)
	var first []byte
	for _, r := range []repro.Representation{repro.ReprSparse, repro.ReprRoaring, repro.ReprAuto} {
		j, err := s.Submit(Request{Dataset: "t10", SupportPct: 2.0, Representation: r})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(context.Background(), j.ID)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("repr %v: %v %v", r, v.Status, err)
		}
		if v.Cached {
			t.Fatalf("repr %v shared a cache entry with another representation", r)
		}
		if v.Representation != r.String() {
			t.Fatalf("job view representation %q, want %q", v.Representation, r)
		}
		res, err := s.Result(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := repro.WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("repr %v mined different itemsets", r)
		}
	}
	if got := s.Cache().Len(); got != 3 {
		t.Fatalf("cache entries = %d, want 3 (one per representation)", got)
	}
	// Resubmitting under the same representation hits its entry.
	j, err := s.Submit(Request{Dataset: "t10", SupportPct: 2.0, Representation: repro.ReprRoaring})
	if err != nil {
		t.Fatal(err)
	}
	if v := j.Snapshot(); !v.Cached {
		t.Fatalf("same-representation resubmission missed the cache: %+v", v)
	}
}

// TestDatasetVerticalSetsMemoizedPerRepresentation checks the roaring
// transform is computed once, shared across VerticalSets calls, and that
// every representation of the transform carries the same tid-sets.
func TestDatasetVerticalSetsMemoizedPerRepresentation(t *testing.T) {
	r := NewRegistry()
	ds, err := r.Add("t10", "generated", genDataset(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := ds.VerticalRoarings(), ds.VerticalRoarings()
	if &r1[0] != &r2[0] {
		t.Fatal("VerticalRoarings recomputed instead of memoized")
	}
	sparse, _ := ds.VerticalSets(tidlist.ReprSparse)
	roaring, ok := ds.VerticalSets(tidlist.ReprRoaring)
	if !ok {
		t.Fatal("VerticalSets must always serve the repro.Source vertical view")
	}
	auto, _ := ds.VerticalSets(tidlist.ReprAuto)
	vert := ds.Vertical()
	for it := range vert {
		want := vert[it]
		for _, sets := range [][]tidlist.Set{sparse, roaring, auto} {
			got := tidlist.TIDsOf(sets[it])
			if len(got) != len(want) {
				t.Fatalf("item %d: %d tids, want %d", it, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("item %d: tid mismatch at %d", it, i)
				}
			}
		}
		if sparse[it].Repr() != tidlist.ReprSparse {
			t.Fatalf("item %d: sparse transform has repr %v", it, sparse[it].Repr())
		}
		if vert[it].Support() > 0 && roaring[it].Repr() != tidlist.ReprRoaring {
			t.Fatalf("item %d: roaring transform has repr %v", it, roaring[it].Repr())
		}
	}
	// The auto transform never ships an item in a more expensive
	// encoding, so its total size is the VerticalSizes auto figure.
	sp, ro, au := ds.VerticalSizes()
	if au > sp || au > ro {
		t.Fatalf("auto size %d exceeds sparse %d or roaring %d", au, sp, ro)
	}
	var autoSum int64
	for _, s := range auto {
		autoSum += s.SizeBytes()
	}
	if autoSum != au {
		t.Fatalf("auto transform totals %d bytes, VerticalSizes says %d", autoSum, au)
	}
}
