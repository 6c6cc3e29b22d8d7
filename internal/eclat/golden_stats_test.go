package eclat

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/mining"
	"repro/internal/tidlist"
)

// The golden-stats suite pins the class-task engine to the work-counter
// profile and output fingerprints captured from the pre-engine variants
// (scripts/golden_stats.go regenerates the file; the committed copy was
// produced by the PR 7 tree). Equality here is the refactor's contract:
// same kernel call sequence, same short-circuits, same diffset
// transitions, same bytes out — at every representation and worker
// count, not just on one lucky configuration.

type kernelGold struct {
	SparseOps      int64 `json:"sparseOps"`
	WordsTouched   int64 `json:"wordsTouched"`
	RoaringElemOps int64 `json:"roaringElemOps"`
	Conversions    int64 `json:"conversions"`
}

type statsGold struct {
	Scans          int        `json:"scans"`
	Intersections  int64      `json:"intersections"`
	ShortCircuited int64      `json:"shortCircuited"`
	IntersectOps   int64      `json:"intersectOps"`
	Classes        int        `json:"classes"`
	DiffsetClasses int64      `json:"diffsetClasses"`
	Kernel         kernelGold `json:"kernel"`
}

type maxGold struct {
	statsGold
	Lookaheads    int64 `json:"lookaheads"`
	LookaheadHits int64 `json:"lookaheadHits"`
	Candidates    int   `json:"candidates"`
}

type diffGold struct {
	Scans         int        `json:"scans"`
	Intersections int64      `json:"intersections"`
	DiffOps       int64      `json:"diffOps"`
	ListBytes     int64      `json:"listBytes"`
	Kernel        kernelGold `json:"kernel"`
}

type goldenEntry struct {
	Dataset      string            `json:"dataset"`
	MinSup       int               `json:"minsup"`
	Repr         string            `json:"repr"`
	Stats        statsGold         `json:"stats"`
	Max          maxGold           `json:"max"`
	Diff         diffGold          `json:"diff"`
	Fingerprints map[string]uint64 `json:"fingerprints"`
}

func loadGoldens(t *testing.T) []goldenEntry {
	t.Helper()
	buf, err := os.ReadFile("testdata/golden_stats.json")
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no golden entries")
	}
	return entries
}

// goldenDB rebuilds the deterministic seed datasets the goldens were
// captured on (generation is pure in the config seed).
func goldenDB(t *testing.T, name string) *db.Database {
	t.Helper()
	switch name {
	case "T10I6-2000":
		return gen.MustGenerate(gen.T10I6(2000))
	case "T5I2-800":
		return gen.MustGenerate(gen.T5I2(800))
	default:
		t.Fatalf("unknown golden dataset %q", name)
		return nil
	}
}

// goldenFingerprint matches scripts/golden_stats.go: FNV-64a over the
// canonical sorted (minsup, |D|, itemset, support) stream.
func goldenFingerprint(res *mining.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(res.MinSup))
	put(int64(res.NumTransactions))
	for _, f := range res.Itemsets {
		put(int64(f.Set.K()))
		for _, it := range f.Set {
			put(int64(it))
		}
		put(int64(f.Support))
	}
	return h.Sum64()
}

func kernelOf(k *tidlist.KernelStats) kernelGold {
	return kernelGold{
		SparseOps:      k.SparseOps(),
		WordsTouched:   k.WordsTouched(),
		RoaringElemOps: k.RoaringElemOps(),
		Conversions:    k.Conversions(),
	}
}

func statsOf(st *Stats) statsGold {
	return statsGold{
		Scans:          st.Scans,
		Intersections:  st.Intersections,
		ShortCircuited: st.ShortCircuited,
		IntersectOps:   st.IntersectOps,
		Classes:        st.Classes,
		DiffsetClasses: st.DiffsetClasses,
		Kernel:         kernelOf(&st.Kernel),
	}
}

func parseGoldenRepr(t *testing.T, s string) tidlist.Repr {
	t.Helper()
	r, err := tidlist.ParseRepr(s)
	if err != nil {
		t.Fatalf("golden repr %q: %v", s, err)
	}
	return r
}

// TestEngineMatchesGoldenStats drives every engine policy over the
// frozen profile: the all-frequent counters at workers 1–8, the maximal
// counters at workers 1–8, the pure-diffset counters, and the output
// fingerprints of all eight variants (sequential, parallel-local,
// maximal, diffsets, closed, CHARM, cluster, hybrid, maximal-cluster).
// Workers and Steals are scheduling figures, not work counters, and are
// deliberately outside the comparison.
func TestEngineMatchesGoldenStats(t *testing.T) {
	dbs := map[string]*db.Database{}
	for _, e := range loadGoldens(t) {
		d, ok := dbs[e.Dataset]
		if !ok {
			d = goldenDB(t, e.Dataset)
			dbs[e.Dataset] = d
		}
		repr := parseGoldenRepr(t, e.Repr)
		opts := Options{Representation: repr}
		t.Run(e.Dataset+"/"+e.Repr, func(t *testing.T) {
			res, st, err := MineSequentialOpts(context.Background(), d, e.MinSup, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := statsOf(&st); got != e.Stats {
				t.Errorf("sequential stats = %+v, want %+v", got, e.Stats)
			}
			if fp := goldenFingerprint(res); fp != e.Fingerprints["all"] {
				t.Errorf("sequential fingerprint = %#x, want %#x", fp, e.Fingerprints["all"])
			}

			for workers := 1; workers <= 8; workers++ {
				o := opts
				o.Workers = workers
				pres, pst, err := MineParallelLocal(context.Background(), d, e.MinSup, o)
				if err != nil {
					t.Fatal(err)
				}
				if got := statsOf(&pst); got != e.Stats {
					t.Errorf("parallel workers=%d stats = %+v, want %+v", workers, got, e.Stats)
				}
				if fp := goldenFingerprint(pres); fp != e.Fingerprints["all"] {
					t.Errorf("parallel workers=%d fingerprint = %#x, want %#x", workers, fp, e.Fingerprints["all"])
				}

				mres, mst, err := MineMaximalOpts(context.Background(), d, e.MinSup, o)
				if err != nil {
					t.Fatal(err)
				}
				got := maxGold{
					statsGold:     statsOf(&mst.Stats),
					Lookaheads:    mst.Lookaheads,
					LookaheadHits: mst.LookaheadHits,
					Candidates:    mst.Candidates,
				}
				if got != e.Max {
					t.Errorf("maximal workers=%d stats = %+v, want %+v", workers, got, e.Max)
				}
				if fp := goldenFingerprint(mres); fp != e.Fingerprints["maximal"] {
					t.Errorf("maximal workers=%d fingerprint = %#x, want %#x", workers, fp, e.Fingerprints["maximal"])
				}

				cres, _, err := MineClosedOpts(context.Background(), d, e.MinSup, o)
				if err != nil {
					t.Fatal(err)
				}
				if fp := goldenFingerprint(cres); fp != e.Fingerprints["closed"] {
					t.Errorf("closed workers=%d fingerprint = %#x, want %#x", workers, fp, e.Fingerprints["closed"])
				}
			}

			dres, dst, err := MineSequentialDiffsetsOpts(context.Background(), d, e.MinSup, opts)
			if err != nil {
				t.Fatal(err)
			}
			gotDiff := diffGold{
				Scans:         dst.Scans,
				Intersections: dst.Intersections,
				DiffOps:       dst.DiffOps,
				ListBytes:     dst.ListBytes,
				Kernel:        kernelOf(&dst.Kernel),
			}
			if gotDiff != e.Diff {
				t.Errorf("diffsets stats = %+v, want %+v", gotDiff, e.Diff)
			}
			if fp := goldenFingerprint(dres); fp != e.Fingerprints["diffsets"] {
				t.Errorf("diffsets fingerprint = %#x, want %#x", fp, e.Fingerprints["diffsets"])
			}

			chres, _, err := MineClosedCHARMOpts(context.Background(), d, e.MinSup, opts)
			if err != nil {
				t.Fatal(err)
			}
			if fp := goldenFingerprint(chres); fp != e.Fingerprints["charm"] {
				t.Errorf("charm fingerprint = %#x, want %#x", fp, e.Fingerprints["charm"])
			}

			clres, _ := MineOpts(cluster.New(cluster.Default(2, 2)), d, e.MinSup, opts)
			if fp := goldenFingerprint(clres); fp != e.Fingerprints["cluster"] {
				t.Errorf("cluster fingerprint = %#x, want %#x", fp, e.Fingerprints["cluster"])
			}
			hyres, _ := MineHybridOpts(cluster.New(cluster.Default(2, 2)), d, e.MinSup, opts)
			if fp := goldenFingerprint(hyres); fp != e.Fingerprints["hybrid"] {
				t.Errorf("hybrid fingerprint = %#x, want %#x", fp, e.Fingerprints["hybrid"])
			}
			mpres, _ := MineMaximalParallelOpts(cluster.New(cluster.Default(2, 2)), d, e.MinSup, opts)
			if fp := goldenFingerprint(mpres); fp != e.Fingerprints["maximalCluster"] {
				t.Errorf("maximal-cluster fingerprint = %#x, want %#x", fp, e.Fingerprints["maximalCluster"])
			}
		})
	}
}
