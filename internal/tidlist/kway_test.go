package tidlist

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

func listEq(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randKwaySets builds k random sorted lists over [0, span) and re-encodes
// them round-robin across the two representations, so every fold mixes
// kernels.
func randKwaySets(rng *rand.Rand, k, span int, density float64) []Set {
	var ks KernelStats
	reprs := []Repr{ReprSparse, ReprRoaring}
	out := make([]Set, k)
	for i := range out {
		var tids List
		for t := 0; t < span; t++ {
			if rng.Float64() < density {
				tids = append(tids, itemset.TID(t))
			}
		}
		out[i] = Convert(tids, reprs[i%len(reprs)], &ks)
	}
	return out
}

func TestIntersectKSetsSCMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		sets := randKwaySets(rng, k, 500+rng.Intn(1000), 0.3+0.5*rng.Float64())

		// Ground truth: an unbounded pairwise chain.
		var ks KernelStats
		acc := sets[0]
		for _, s := range sets[1:] {
			acc, _ = IntersectSets(nil, acc, s, &ks)
		}
		want := TIDsOf(acc)

		var kks KernelStats
		got, ops, folds, ok := IntersectKSetsSC(sets, 1, &kks)
		if len(want) > 0 != ok {
			t.Fatalf("trial %d: ok=%v with %d result tids at minsup 1", trial, ok, len(want))
		}
		// An empty running intersection may abort mid-chain even at
		// minsup 1; a successful fold must have visited every operand.
		if ok && folds != k-1 {
			t.Fatalf("trial %d: %d folds for %d sets, want %d", trial, folds, k, k-1)
		}
		if ok {
			if gotTids := TIDsOf(got); !listEq(gotTids, want) {
				t.Fatalf("trial %d: k-way result differs from chain (%d vs %d tids)",
					trial, len(gotTids), len(want))
			}
			if ops == 0 {
				t.Fatalf("trial %d: successful fold reported zero ops", trial)
			}
		}

		// The bound must hold: ok at minsup m means support >= m, and an
		// unreachable bound must abort without visiting every operand's
		// full cost (folds may still be k-1 when the last fold aborts).
		minsup := want.Support() + 1
		if minsup > 1 {
			part, _, aFolds, aOK := IntersectKSetsSC(sets, minsup, &kks)
			if aOK {
				t.Fatalf("trial %d: ok=true at minsup %d above true support %d",
					trial, minsup, want.Support())
			}
			if aFolds < 1 || aFolds > k-1 {
				t.Fatalf("trial %d: aborted fold count %d out of range", trial, aFolds)
			}
			_ = part // partial: unusable by contract, storage only
		}
	}
}

func TestIntersectKSetsSCDegenerate(t *testing.T) {
	var ks KernelStats
	if s, ops, folds, ok := IntersectKSetsSC(nil, 1, &ks); s != nil || ops != 0 || folds != 0 || ok {
		t.Fatalf("empty operands: got (%v, %d, %d, %v)", s, ops, folds, ok)
	}
	one := List{1, 5, 9}
	s, _, folds, ok := IntersectKSetsSC([]Set{one}, 2, &ks)
	if !ok || folds != 0 || !listEq(TIDsOf(s), one) {
		t.Fatalf("single operand: got (%v, folds=%d, ok=%v)", s, folds, ok)
	}
	if _, _, _, ok := IntersectKSetsSC([]Set{one}, 4, &ks); ok {
		t.Fatal("single operand below minsup reported ok")
	}
	// Operands must come back untouched after a fold.
	sets := []Set{List{1, 2, 3, 4}, List{2, 3, 4, 5}, List{3, 4, 5, 6}}
	res, _, _, ok := IntersectKSetsSC(sets, 1, &ks)
	if !ok || !listEq(TIDsOf(res), List{3, 4}) {
		t.Fatalf("fold result %v, want [3 4]", TIDsOf(res))
	}
	if !listEq(TIDsOf(sets[0]), List{1, 2, 3, 4}) || !listEq(TIDsOf(sets[2]), List{3, 4, 5, 6}) {
		t.Fatal("fold modified its operands")
	}
}
