package repro

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// storeSource opens a persisted copy of d as a store-backed Source (the
// shape the service registry serves), with a tiny segment size so the
// bundle partitions across many segments.
func storeSource(t *testing.T, d *Database, segBytes int64) *store.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ooc.ds")
	if err := store.CreateDatasetSeg(path, store.DatasetMeta("ooc", "test", d), d, store.VerticalLists(d), segBytes); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestMineFromMemoryBudgetByteIdentical is the library-level acceptance
// check: mining a store-backed source under a budget smaller than its
// mapping is byte-identical to the plain in-memory mine, and the run
// reports itself out-of-core.
func TestMineFromMemoryBudgetByteIdentical(t *testing.T) {
	d, err := Generate(StandardConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	opts := MineOptions{SupportCount: 4}
	want, _, err := Mine(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := WriteResult(&wantBuf, want); err != nil {
		t.Fatal(err)
	}

	ds := storeSource(t, d, 256)
	for _, budget := range []int64{256, 1024, ds.BytesMapped() + 1} {
		bopts := opts
		bopts.MemoryBudget = budget
		got, info, err := MineFrom(context.Background(), ds, bopts)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		var gotBuf bytes.Buffer
		if err := WriteResult(&gotBuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("budget=%d: budgeted mine differs from in-memory", budget)
		}
		if info.MemoryBudget != budget {
			t.Fatalf("budget=%d: info echoes %d", budget, info.MemoryBudget)
		}
		wantOOC := budget < ds.BytesMapped()
		if info.OutOfCore != wantOOC {
			t.Fatalf("budget=%d (mapped %d): OutOfCore=%v, want %v",
				budget, ds.BytesMapped(), info.OutOfCore, wantOOC)
		}
	}
}

// TestMineNegativeMemoryBudgetRejected covers both entry points.
func TestMineNegativeMemoryBudgetRejected(t *testing.T) {
	d := smallDB(t)
	if _, _, err := Mine(context.Background(), d, MineOptions{SupportCount: 2, MemoryBudget: -5}); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("Mine: %v, want ErrInvalidMemoryBudget", err)
	}
	ds := storeSource(t, d, 0)
	if _, _, err := MineFrom(context.Background(), ds, MineOptions{SupportCount: 2, MemoryBudget: -5}); !errors.Is(err, ErrInvalidMemoryBudget) {
		t.Fatalf("MineFrom: %v, want ErrInvalidMemoryBudget", err)
	}
}

// TestMineMemoryBudgetIgnoredForMemorySources pins the graceful
// degradation: a budget on a source with no store mapping mines in-core.
func TestMineMemoryBudgetIgnoredForMemorySources(t *testing.T) {
	d := smallDB(t)
	_, info, err := Mine(context.Background(), d, MineOptions{SupportCount: 4, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.OutOfCore {
		t.Fatal("in-memory mine claims to be out-of-core")
	}
}

// TestLegacyBitsetBundleMinesLikeHorizontal mines the committed store
// dataset written by the release that still spilled flat bitsets
// (internal/store/testdata/legacy-bitset): the bundle must open, its
// bitset records must be skipped, and every representation must mine
// byte-identically to the dataset's own horizontal data.
func TestLegacyBitsetBundleMinesLikeHorizontal(t *testing.T) {
	const src = "internal/store/testdata/legacy-bitset/legacy.ds"
	path := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(path, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := store.OpenDataset(path)
	if err != nil {
		t.Fatalf("open legacy bundle: %v", err)
	}
	defer ds.Close()
	d, err := ds.Horizontal()
	if err != nil {
		t.Fatal(err)
	}
	for _, repr := range []Representation{ReprAuto, ReprSparse, ReprRoaring, ReprBitset} {
		opts := MineOptions{SupportCount: 3, Representation: repr}
		want, _, err := Mine(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MineFrom(context.Background(), ds, opts)
		if err != nil {
			t.Fatalf("%v: %v", repr, err)
		}
		var wantBuf, gotBuf bytes.Buffer
		if err := WriteResult(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		if err := WriteResult(&gotBuf, got); err != nil {
			t.Fatal(err)
		}
		if len(want.Itemsets) == 0 {
			t.Fatalf("%v: nothing frequent; the check would be vacuous", repr)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("%v: legacy bundle mine differs from its horizontal data", repr)
		}
	}
}
