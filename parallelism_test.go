package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obsv"
)

func TestMineParallelismMatchesSequential(t *testing.T) {
	d := smallDB(t)
	seq, seqInfo, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seqInfo.Parallelism != 1 || seqInfo.Steals != 0 {
		t.Fatalf("sequential info = %+v", seqInfo)
	}
	for _, par := range []int{2, 4, 8} {
		res, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(res.Itemsets, seq.Itemsets) {
			t.Fatalf("parallelism %d: result differs from sequential", par)
		}
		if info.Parallelism != par {
			t.Fatalf("parallelism %d: info.Parallelism = %d", par, info.Parallelism)
		}
		if info.Scans != 2 {
			t.Fatalf("parallelism %d: scans = %d, want 2", par, info.Scans)
		}
	}
}

func TestMineParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); info.Parallelism != want {
		t.Fatalf("info.Parallelism = %d, want GOMAXPROCS = %d", info.Parallelism, want)
	}
}

func TestMineNegativeParallelismRejected(t *testing.T) {
	d := smallDB(t)
	_, _, err := Mine(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -1})
	if !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("err = %v, want ErrInvalidParallelism", err)
	}
	if _, _, err := MineMaximal(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -2}); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("MineMaximal err = %v, want ErrInvalidParallelism", err)
	}
	if _, _, err := MineClosed(context.Background(), d, MineOptions{SupportPct: 1.0, Parallelism: -3}); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("MineClosed err = %v, want ErrInvalidParallelism", err)
	}
}

func TestMineParallelCancellation(t *testing.T) {
	d := smallDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Mine(ctx, d, MineOptions{SupportPct: 1.0, Parallelism: 4})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if _, err := (MineOptions{Parallelism: -5}).Workers(); !errors.Is(err, ErrInvalidParallelism) {
		t.Fatalf("negative Parallelism: err = %v", err)
	}
	if n, err := (MineOptions{}).Workers(); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Parallelism resolved to (%d, %v)", n, err)
	}
	if n, err := (MineOptions{Parallelism: 3}).Workers(); err != nil || n != 3 {
		t.Fatalf("Parallelism 3 resolved to (%d, %v)", n, err)
	}
}

// engineCounters snapshots every eclat_* and tidlist_* counter of the
// process registry except eclat_steals_total, the one figure that
// depends on which driver mined.
func engineCounters(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obsv.Default.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var all map[string]any
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for name, v := range all {
		f, scalar := v.(float64)
		if scalar && (strings.HasPrefix(name, "eclat_") || strings.HasPrefix(name, "tidlist_")) && name != "eclat_steals_total" {
			out[name] = f
		}
	}
	return out
}

// TestDriverInvariantMetrics pins that the engine's two drivers report
// one job identically: at Parallelism 1 (the sequential driver) and 4
// (the work-stealing driver), the result bytes and every engine counter
// delta are equal, for a horizontal and a store-backed source.
func TestDriverInvariantMetrics(t *testing.T) {
	d := smallDB(t)
	ds := storeSource(t, d, 1<<10)
	sources := map[string]Source{"horizontal": HorizontalSource(d), "store": ds}
	for name, src := range sources {
		run := func(par int) ([]byte, map[string]float64) {
			before := engineCounters(t)
			res, _, err := MineFrom(context.Background(), src, MineOptions{SupportPct: 0.3, Parallelism: par})
			if err != nil {
				t.Fatalf("%s/parallelism %d: %v", name, par, err)
			}
			var buf bytes.Buffer
			if err := WriteResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			delta := engineCounters(t)
			for m, v := range delta {
				delta[m] = v - before[m]
			}
			return buf.Bytes(), delta
		}
		wantBytes, want := run(1)
		if want["eclat_classes_total"] == 0 || want["eclat_intersections_total"] == 0 {
			t.Fatalf("%s: sequential run advanced no engine counters: %v", name, want)
		}
		gotBytes, got := run(4)
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: parallel result differs from sequential", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: counter deltas differ between drivers:\n  par 4: %v\n  par 1: %v", name, got, want)
		}
	}
}

// TestMinePhaseHistograms pins the phase histograms of a horizontal
// mine: Mine observes the initialization, transformation and
// asynchronous spans into mine_phase_<phase>_ns. (Vertical sources have
// no transformation span by design; the daemon's test covers those.)
func TestMinePhaseHistograms(t *testing.T) {
	names := []string{"mine_phase_initialization_ns", "mine_phase_transformation_ns", "mine_phase_asynchronous_ns"}
	before := make([]int64, len(names))
	for i, n := range names {
		before[i] = obsv.Default.Histogram(n, "", nil).Count()
	}
	if _, _, err := Mine(context.Background(), smallDB(t), MineOptions{SupportPct: 1.0, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if c := obsv.Default.Histogram(n, "", nil).Count(); c <= before[i] {
			t.Fatalf("histogram %q did not advance: before=%d after=%d", n, before[i], c)
		}
	}
}
