package eclat

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/tidlist"
)

// benchTx sizes the T10.I6-style benchmark dataset (generation is
// deterministic in the seed, so every sub-benchmark mines the same data).
const benchTx = 20000

func BenchmarkMineParallelLocal(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	for _, repr := range []tidlist.Repr{tidlist.ReprSparse} {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			name := fmt.Sprintf("repr=%s/workers=%d", repr, workers)
			if workers == 0 {
				name = fmt.Sprintf("repr=%s/workers=seq", repr)
			}
			b.Run(name, func(b *testing.B) {
				opts := Options{Representation: repr, Workers: workers}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if workers == 0 {
						_, _, err = MineSequentialOpts(context.Background(), d, minsup, opts)
					} else {
						_, _, err = MineParallelLocal(context.Background(), d, minsup, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineVariants is the engine-scaling grid for the policies that
// gained multicore from the class-task engine: maximal and closed at
// 1/2/4 workers (workers=1 is the engine's sequential driver — the
// pre-engine baseline shape), plus a top-k row showing what the adaptive
// threshold saves against mining everything at the same floor.
func BenchmarkMineVariants(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("variant=maximal/workers=%d", workers), func(b *testing.B) {
			opts := Options{Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MineMaximalOpts(context.Background(), d, minsup, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("variant=closed/workers=%d", workers), func(b *testing.B) {
			opts := Options{Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MineClosedOpts(context.Background(), d, minsup, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("variant=topk100/workers=1", func(b *testing.B) {
		opts := Options{TopK: 100}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := MineSequentialOpts(context.Background(), d, minsup, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMineSequentialAlloc measures the scratch arena's effect on the
// sequential recursion: arena=off is the pre-arena behaviour (every
// sub-class member slice and surviving tid-set clone hits the heap),
// arena=on the stack-disciplined reuse path.
func BenchmarkMineSequentialAlloc(b *testing.B) {
	d := gen.MustGenerate(gen.T10I6(benchTx))
	minsup := d.MinSupCount(0.25)
	for _, mode := range []string{"off", "on"} {
		b.Run("arena="+mode, func(b *testing.B) {
			var ar *arena
			if mode == "on" {
				ar = &arena{}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mineSequential(context.Background(), d, minsup, Options{}, ar); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
