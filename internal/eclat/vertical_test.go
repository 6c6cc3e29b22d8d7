package eclat

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/mining"
	"repro/internal/testutil"
	"repro/internal/tidlist"
)

// verticalSets builds the per-item tid-sets of d in the requested
// representation — the shape the persistent store and the service
// registry hand to MineVerticalLocal.
func verticalSets(d *db.Database, repr tidlist.Repr) []tidlist.Set {
	lists := make([]tidlist.List, d.NumItems)
	for _, tx := range d.Transactions {
		for _, it := range tx.Items {
			lists[it] = append(lists[it], tx.TID)
		}
	}
	sets := make([]tidlist.Set, d.NumItems)
	for it, l := range lists {
		if len(l) == 0 {
			continue
		}
		if repr == tidlist.ReprRoaring {
			sets[it] = tidlist.NewRoaring(l)
		} else {
			sets[it] = l
		}
	}
	return sets
}

func resultBytes(t *testing.T, res *mining.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mining.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMineVerticalLocalMatchesHorizontal is the differential contract of
// the vertical path: for every input representation, mining
// representation and worker count, MineVerticalLocal's serialized result
// is byte-identical to the horizontal sequential miner's, and it never
// scans horizontal data.
func TestMineVerticalLocalMatchesHorizontal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, numTx := range []int{60, 250} {
		d := testutil.RandomDB(rng, numTx, 30, 8)
		minsup := 3
		want, _ := MineSequential(d, minsup)
		wantBytes := resultBytes(t, want)

		for _, inputRepr := range []tidlist.Repr{tidlist.ReprSparse, tidlist.ReprRoaring} {
			in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, inputRepr)}
			for _, mineRepr := range []tidlist.Repr{tidlist.ReprAuto, tidlist.ReprSparse, tidlist.ReprRoaring} {
				for _, workers := range []int{1, 2, 4} {
					res, st, err := MineVerticalLocal(context.Background(), in, minsup,
						Options{Representation: mineRepr, Workers: workers})
					if err != nil {
						t.Fatalf("numTx=%d input=%v repr=%v workers=%d: %v",
							numTx, inputRepr, mineRepr, workers, err)
					}
					if got := resultBytes(t, res); !bytes.Equal(got, wantBytes) {
						t.Fatalf("numTx=%d input=%v repr=%v workers=%d: vertical result differs from horizontal",
							numTx, inputRepr, mineRepr, workers)
					}
					if st.Scans != 0 {
						t.Fatalf("vertical mine reported %d horizontal scans", st.Scans)
					}
					if st.Workers != workers {
						t.Fatalf("st.Workers = %d, want %d", st.Workers, workers)
					}
				}
			}
		}
	}
}

// TestMineVerticalLocalCancel proves the vertical path honors ctx during
// the pairwise L2 build and the class recursion.
func TestMineVerticalLocalCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := testutil.RandomDB(rng, 200, 25, 8)
	in := VerticalInput{NumTransactions: d.Len(), Items: verticalSets(d, tidlist.ReprSparse)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MineVerticalLocal(ctx, in, 2, Options{Workers: 1}); err == nil {
		t.Fatal("canceled vertical mine returned nil error")
	}
}

// TestMineVerticalLocalEmpty covers the degenerate inputs a store can
// legitimately serve: no items frequent, and an empty dataset.
func TestMineVerticalLocalEmpty(t *testing.T) {
	res, st, err := MineVerticalLocal(context.Background(),
		VerticalInput{NumTransactions: 4, Items: []tidlist.Set{tidlist.List{0}, nil, tidlist.List{1}}},
		3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 0 {
		t.Fatalf("infrequent input yielded %v", res.Itemsets)
	}
	if st.Classes != 0 {
		t.Fatalf("infrequent input yielded %d classes", st.Classes)
	}
	res, _, err = MineVerticalLocal(context.Background(), VerticalInput{}, 1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Itemsets) != 0 {
		t.Fatalf("empty input yielded %v", res.Itemsets)
	}
}
