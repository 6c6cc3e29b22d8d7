package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/mining"
)

func TestPickTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: pickTail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		wantPct    float64
		wantValue  float64
		wantBeyond int
	}{
		{100, 90, 90, 10},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
		{250, 95, 238, 12},
	} {
		got, ok := pickTail(seq(tc.n))
		if !ok || got.Pct != tc.wantPct || got.Value != tc.wantValue || got.Beyond != tc.wantBeyond {
			t.Errorf("n=%d: got %+v ok=%v, want p%g=%g with %d beyond", tc.n, got, ok, tc.wantPct, tc.wantValue, tc.wantBeyond)
		}
	}
	if got, ok := pickTail(seq(15)); ok {
		t.Errorf("15 samples: got %+v, want no reportable tail", got)
	}
	same := make([]float64, 500)
	if got, ok := pickTail(same); ok {
		t.Errorf("500 equal samples: got %+v, want no reportable tail (nothing lies beyond)", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 60); p != 3 {
		t.Errorf("p60 = %v", p)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{
		{StartNS: 10, EndNS: 30},
		{StartNS: 20, EndNS: 40},  // overlaps the first: counted once
		{StartNS: 90, EndNS: 120}, // runs past the parent: clipped
		{StartNS: -5, EndNS: 5},   // starts before the parent: clipped
		{StartNS: 50, EndNS: 50},  // empty
	}
	if got := selfNS(parent, kids); got != 55 {
		t.Fatalf("selfNS = %d, want 100 - (30 + 10 + 5) = 55", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Fatalf("selfNS without children = %d, want 100", got)
	}
	r := newRecorder()
	o := r.origin
	root := r.addTree(1, "op", o, o.Add(100), []kid{{"a", o.Add(10), o.Add(60)}, {"b", o.Add(60), o.Add(70)}})
	if got := selfNS(r.get(root), r.children(root)); got != 40 {
		t.Fatalf("recorded tree self time = %d, want 40", got)
	}
}

func TestFingerprintIgnoresOrderAndSeesChanges(t *testing.T) {
	a := &mining.Result{}
	a.Add(repro.NewItemset(1, 2), 5)
	a.Add(repro.NewItemset(3), 7)
	b := &mining.Result{}
	b.Add(repro.NewItemset(3), 7)
	b.Add(repro.NewItemset(1, 2), 5)
	if fingerprintOf(a) != fingerprintOf(b) {
		t.Fatal("fingerprint depends on itemset order")
	}
	c := &mining.Result{}
	c.Add(repro.NewItemset(3), 7)
	c.Add(repro.NewItemset(1, 2), 6)
	if fingerprintOf(a) == fingerprintOf(c) {
		t.Fatal("fingerprint misses a changed support")
	}
}

func TestFingerprintEqualAcrossEncodingsAndWorkers(t *testing.T) {
	ctx := context.Background()
	d, err := generate(1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	minsup := 8
	ref, err := reference(ctx, d, minsup)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintOf(ref)
	if want.N < 100 {
		t.Fatalf("reference too small to mean anything: %v", want)
	}
	for _, repr := range []repro.Representation{repro.ReprSparse, repro.ReprRoaring, repro.ReprBitset, repro.ReprAuto} {
		for _, workers := range []int{1, 2} {
			res, _, err := repro.Mine(ctx, d, repro.MineOptions{SupportCount: minsup, Representation: repr, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(res); got != want {
				t.Errorf("%v at %d workers: %v, want %v", repr, workers, got, want)
			}
		}
	}
}

// TestTracedMatchesUntraced runs every batch workload's set-up at a tiny
// size, then one untraced and one traced op, which must agree with each
// other and with the reference, and the traced op must report its layers.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		par    int
		stored bool
		layer  string // a per-layer metric the op must report as non-zero
	}{
		{"mem", 1, false, "eclat.transform_ms"},
		{"store", 2, true, "store.acquires"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config{workload: tc.name, seed: 3, workdir: t.TempDir()}
			b := newBatch(cfg, 3000, 0.5, tc.par, tc.stored)
			defer b.close()
			if _, err := b.setup(ctx); err != nil {
				t.Fatal(err)
			}
			plain, err := b.mine(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := b.mineTraced(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p, q := fingerprintOf(plain), fingerprintOf(tr.res); p != q || p != b.ref {
				t.Fatalf("untraced %v, traced %v, reference %v", p, q, b.ref)
			}
			if tr.layers[tc.layer] <= 0 {
				t.Fatalf("%s = %v, want > 0 (layers %v)", tc.layer, tr.layers[tc.layer], tr.layers)
			}
			if got, want := tr.layers["eclat.classes"], float64(tr.st.Classes); got != want || got == 0 {
				t.Fatalf("eclat.classes = %v, want Stats.Classes %v > 0", got, want)
			}
			if len(b.spans().children(1)) == 0 {
				t.Fatal("traced op recorded no child spans")
			}
		})
	}
}

func TestMeasureCountsEveryOp(t *testing.T) {
	ctx := context.Background()
	cfg := config{workload: "mem", seed: 5, workdir: t.TempDir()}
	b := newBatch(cfg, 2000, 1, 1, false)
	defer b.close()
	if _, err := b.setup(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := b.measure(ctx, time.Now().Add(200*time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted < 1 || m.failed != 0 || m.done != m.attempted || len(m.latMS) != m.done {
		t.Fatalf("attempted %d, failed %d, done %d, timed %d", m.attempted, m.failed, m.done, len(m.latMS))
	}
	// A wrong reference turns every op into a counted failure.
	b.ref.Sum++
	m, err = b.measure(ctx, time.Now().Add(100*time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != m.attempted || m.done != 0 || len(m.latMS) != 0 {
		t.Fatalf("with a wrong reference: attempted %d, failed %d, done %d, timed %d", m.attempted, m.failed, m.done, len(m.latMS))
	}
}

// TestServeMixSmoke builds the daemon, runs serve-mix's set-up and a
// short traced measure, and checks that every op succeeded and that the
// service layers were measured.
func TestServeMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts assocmined")
	}
	bin := filepath.Join(t.TempDir(), "assocmined")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/assocmined").CombinedOutput(); err != nil {
		t.Fatalf("building assocmined: %v\n%s", err, out)
	}
	ctx := context.Background()
	s := newServe(config{workload: "serve-mix", seed: 2, workdir: t.TempDir(), daemon: bin})
	defer s.close()
	if _, err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := s.measure(ctx, time.Now().Add(2*time.Second), true)
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted < mixBlock/2 || m.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", m.attempted, m.failed, m.detail)
	}
	for _, k := range []string{"serve.hit_p50_ms", "serve.miss_p50_ms", "service.job_ms", "service.cache_hit_frac", "http.result_bytes"} {
		if m.layers[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.layers[k])
		}
	}
	if cpu, err := procCPU(s.pid()); err != nil || cpu <= 0 {
		t.Errorf("daemon CPU %v, %v", cpu, err)
	}
}
