package tidlist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// benchTidList returns exactly n distinct sorted tids drawn from
// [0, universe) — fixed cardinality, so density = n/universe is exact.
func benchTidList(rng *rand.Rand, n, universe int) List {
	seen := map[itemset.TID]bool{}
	for len(seen) < n {
		seen[itemset.TID(rng.Intn(universe))] = true
	}
	out := make(List, 0, n)
	for t := range seen {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// BenchmarkIntersectKernels compares the intersection kernels — sparse
// merge, containerized roaring, and the adaptive policy's pick — across
// densities spanning both sides of DenseThreshold (~3.1%). This is the
// perf baseline behind the representation layer: roaring's bitmap
// containers should win clearly on dense inputs (>= ~5%) and lose to
// the merge once the tids spread out, and adaptive should track the
// winner.
//
// The diffset row measures the dEclat difference kernel (DiffSets) on
// the same operands in their adaptively chosen encoding — the cost of
// the first diffset transition at that density, the number the
// break-even rule in DESIGN.md §5 is derived from.
//
// scripts/bench_kernels.go runs this benchmark and writes the committed
// BENCH_kernels.json snapshot.
func BenchmarkIntersectKernels(b *testing.B) {
	const n = 2048
	densities := []struct {
		name     string
		universe int
	}{
		{"50%", n * 2},
		{"12.5%", n * 8},
		{"5%", n * 20},
		{"3.1%", n * 32}, // DenseThreshold: the policy's switch point
		{"1%", n * 100},
		{"0.2%", n * 500},
	}
	for _, d := range densities {
		rng := rand.New(rand.NewSource(7))
		x := benchTidList(rng, n, d.universe)
		y := benchTidList(rng, n, d.universe)
		rx, ry := NewRoaring(x), NewRoaring(y)
		auto := ChooseRepr(ReprAuto, n, d.universe)
		kernels := []struct {
			name string
			a, b Set
			diff bool
		}{
			{"sparse", x, y, false},
			{"roaring", rx, ry, false},
			{"adaptive", asRepr(x, auto), asRepr(y, auto), false},
			{"diffset", asRepr(x, auto), asRepr(y, auto), true},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("density=%s/kernel=%s", d.name, k.name), func(b *testing.B) {
				var ks KernelStats
				var scratch Set
				b.ReportAllocs()
				b.ResetTimer()
				if k.diff {
					for i := 0; i < b.N; i++ {
						scratch, _ = DiffSets(scratch, k.a, k.b, &ks)
					}
				} else {
					for i := 0; i < b.N; i++ {
						scratch, _ = IntersectSets(scratch, k.a, k.b, &ks)
					}
				}
				b.ReportMetric(float64(scratch.Support()), "tids")
			})
		}
	}
}

// BenchmarkIntersectKernelsSC is the short-circuit variant at a minsup
// just above the expected overlap, the regime section 5.3 optimizes:
// most candidate intersections abort.
func BenchmarkIntersectKernelsSC(b *testing.B) {
	const n = 2048
	for _, d := range []struct {
		name     string
		universe int
	}{
		{"12.5%", n * 8},
		{"1%", n * 100},
	} {
		rng := rand.New(rand.NewSource(7))
		x := benchTidList(rng, n, d.universe)
		y := benchTidList(rng, n, d.universe)
		full := Intersect(x, y)
		minsup := len(full) + 1 // infeasible: every scan must abort
		kernels := []struct {
			name string
			a, b Set
		}{
			{"sparse", x, y},
			{"roaring", NewRoaring(x), NewRoaring(y)},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("density=%s/kernel=%s", d.name, k.name), func(b *testing.B) {
				var ks KernelStats
				var scratch Set
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scratch, _, _ = IntersectSetsSC(scratch, k.a, k.b, minsup, &ks)
				}
			})
		}
	}
}
