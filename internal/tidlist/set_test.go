package tidlist

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/itemset"
)

// asRepr encodes l under r (ReprAuto is treated as sparse here; the
// adaptive policy is exercised separately through ChooseRepr).
func asRepr(l List, r Repr) Set {
	if r == ReprRoaring {
		return NewRoaring(l)
	}
	return l
}

// reprCombos enumerates the four operand pairings every kernel dispatch
// must handle: each of sparse/roaring against each other.
var reprCombos = [][2]Repr{
	{ReprSparse, ReprSparse},
	{ReprSparse, ReprRoaring},
	{ReprRoaring, ReprSparse},
	{ReprRoaring, ReprRoaring},
}

func TestParseRepr(t *testing.T) {
	cases := []struct {
		in   string
		want Repr
	}{
		{"", ReprAuto}, {"auto", ReprAuto},
		{"sparse", ReprSparse},
		{"roaring", ReprRoaring}, {"compressed", ReprRoaring},
		// The retired flat bitset's names alias roaring.
		{"bitset", ReprRoaring}, {"dense", ReprRoaring},
	}
	for _, c := range cases {
		got, err := ParseRepr(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseRepr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseRepr("hashtable"); err == nil {
		t.Fatal("ParseRepr should reject unknown names")
	} else if !errors.Is(err, ErrInvalidRepresentation) {
		t.Fatalf("ParseRepr error %v should wrap ErrInvalidRepresentation", err)
	}
	for _, r := range []Repr{ReprAuto, ReprSparse, ReprRoaring} {
		back, err := ParseRepr(r.String())
		if err != nil || back != r {
			t.Fatalf("String/Parse round trip broken for %v", r)
		}
	}
}

func TestChooseRepr(t *testing.T) {
	// Explicit requests pass through regardless of density.
	if ChooseRepr(ReprSparse, 1000, 1000) != ReprSparse {
		t.Fatal("explicit sparse overridden")
	}
	if ChooseRepr(ReprRoaring, 1, 100) != ReprRoaring {
		t.Fatal("explicit roaring overridden")
	}
	// Auto: roaring at and above the threshold, sparse below.
	if ChooseRepr(ReprAuto, 32, 1024) != ReprRoaring { // density exactly 1/32
		t.Fatal("auto should pick roaring at the break-even density")
	}
	if ChooseRepr(ReprAuto, 31, 1024) != ReprSparse {
		t.Fatal("auto should pick sparse just below the threshold")
	}
	// Dense classes go roaring whatever their span: a narrow class fits
	// one chunk, a wide one spans many.
	for _, span := range []int{chunkSize, 8*chunkSize + 1} {
		if ChooseRepr(ReprAuto, span/16, span) != ReprRoaring {
			t.Fatalf("auto should pick roaring for a dense class spanning %d tids", span)
		}
	}
	// Degenerate inputs stay sparse.
	if ChooseRepr(ReprAuto, 0, 100) != ReprSparse || ChooseRepr(ReprAuto, 5, 0) != ReprSparse {
		t.Fatal("degenerate density should fall back to sparse")
	}
}

func TestIntersectSetsAllCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		want := Intersect(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: IntersectSets = %v, want %v", combo[0], combo[1], TIDsOf(got), want)
			}
			if got.Support() != len(want) {
				t.Fatalf("combo %v/%v: Support = %d, want %d", combo[0], combo[1], got.Support(), len(want))
			}
			if ops < 0 {
				t.Fatalf("combo %v/%v: negative ops %d", combo[0], combo[1], ops)
			}
			assertOpsCounted(t, &ks, combo, int64(ops))
		}
	}
}

func TestDiffSetsAllCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		want := Diff(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := DiffSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: DiffSets = %v, want %v", combo[0], combo[1], TIDsOf(got), want)
			}
			if got.Support() != len(want) {
				t.Fatalf("combo %v/%v: Support = %d, want %d", combo[0], combo[1], got.Support(), len(want))
			}
			if ops < 0 {
				t.Fatalf("combo %v/%v: negative ops %d", combo[0], combo[1], ops)
			}
		}
	}
}

// TestIntersectSetsSCContract pins the short-circuit contract for every
// kernel: ok is exactly |a∩b| >= minsup, the content is the true
// intersection when ok, and the operations performed before a mid-scan
// abort are still reported — both in the return value and in the
// KernelStats field the cluster cost model charges from.
func TestIntersectSetsSCContract(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		full := Intersect(a, b)
		for _, minsup := range []int{0, 1, len(full), len(full) + 1, 15, len(a) + len(b)} {
			for _, combo := range reprCombos {
				var ks KernelStats
				got, ops, ok := IntersectSetsSC(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), minsup, &ks)
				if ok != (len(full) >= minsup) {
					t.Fatalf("combo %v/%v minsup %d: ok=%v but |∩|=%d", combo[0], combo[1], minsup, ok, len(full))
				}
				if ok && !equalTIDs(TIDsOf(got), full) {
					t.Fatalf("combo %v/%v minsup %d: content mismatch", combo[0], combo[1], minsup)
				}
				if ops < 0 {
					t.Fatalf("combo %v/%v: negative ops", combo[0], combo[1])
				}
				// Aborts must report the work already done: the returned
				// ops and the stats field must agree even when ok=false.
				assertOpsCounted(t, &ks, combo, int64(ops))
			}
		}
	}
}

// TestAbortedResultReusableAsScratch pins the storage-reuse half of the
// partial-prefix contract: the only valid use of an ok=false result is
// as scratch for a later kernel call, and that later call must be
// correct. This is exactly what the mining recursions do after a
// short-circuited candidate.
func TestAbortedResultReusableAsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		a := randomList(rng, 60, 300)
		b := randomList(rng, 60, 300)
		c := randomList(rng, 60, 300)
		for _, combo := range reprCombos {
			var ks KernelStats
			// Force an abort with an unreachable minsup.
			aborted, _, ok := IntersectSetsSC(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), len(a)+len(b)+1, &ks)
			if ok {
				t.Fatal("minsup above both supports must abort")
			}
			// Reuse the partial prefix as scratch for a fresh intersection.
			want := Intersect(a, c)
			got, _ := IntersectSets(aborted, asRepr(a, combo[0]), asRepr(c, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: reusing aborted result as scratch corrupted the next intersection", combo[0], combo[1])
			}
		}
	}
}

func TestCloneSetDetachesFromScratch(t *testing.T) {
	a := mk(1, 2, 3, 4, 5)
	b := mk(2, 4, 5)
	for _, combo := range reprCombos {
		var ks KernelStats
		res, _ := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
		kept := CloneSet(res)
		want := TIDsOf(kept).Clone()
		// Clobber the scratch storage with an unrelated intersection.
		IntersectSets(res, asRepr(mk(100, 200, 300), combo[0]), asRepr(mk(100, 300), combo[1]), &ks)
		if !equalTIDs(TIDsOf(kept), want) {
			t.Fatalf("combo %v/%v: CloneSet result changed after scratch reuse", combo[0], combo[1])
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng, 80, 5000)
		var ks KernelStats
		dense := Convert(l, ReprRoaring, &ks)
		if dense.Repr() != ReprRoaring {
			t.Fatal("Convert to roaring returned wrong representation")
		}
		back := Convert(dense, ReprSparse, &ks)
		if !equalTIDs(TIDsOf(back), l) {
			t.Fatalf("round trip lost tids: %v -> %v", l, TIDsOf(back))
		}
		if ks.Conversions() != 2 {
			t.Fatalf("expected 2 conversions counted, got %d", ks.Conversions())
		}
		// Converting to the same representation (or to auto) is a no-op
		// and must not count.
		if Convert(l, ReprSparse, &ks); ks.Conversions() != 2 {
			t.Fatal("same-representation Convert should not count")
		}
		if Convert(dense, ReprAuto, &ks); ks.Conversions() != 2 {
			t.Fatal("Convert to auto should not count")
		}
	}
}

func TestBounds(t *testing.T) {
	for _, r := range []Repr{ReprSparse, ReprRoaring} {
		if _, _, ok := Bounds(asRepr(nil, r)); ok {
			t.Fatalf("%v: empty set has bounds", r)
		}
		lo, hi, ok := Bounds(asRepr(mk(7, 100, 9000), r))
		if !ok || lo != 7 || hi != 9000 {
			t.Fatalf("%v: Bounds = %d..%d ok=%v, want 7..9000", r, lo, hi, ok)
		}
		// Chunk-spanning set: bounds come from different containers.
		lo, hi, ok = Bounds(asRepr(mk(65535, 65536, 200000), r))
		if !ok || lo != 65535 || hi != 200000 {
			t.Fatalf("%v: Bounds = %d..%d ok=%v, want 65535..200000", r, lo, hi, ok)
		}
	}
}

func TestHashTIDsAgreesAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		l := randomList(rng, 80, 5000)
		var wantSum int64
		for _, tid := range l {
			wantSum += int64(tid)
		}
		if got := HashTIDs(l); got != wantSum {
			t.Fatalf("sparse HashTIDs = %d, want %d", got, wantSum)
		}
		if got := HashTIDs(NewRoaring(l)); got != wantSum {
			t.Fatalf("roaring HashTIDs = %d, want %d", got, wantSum)
		}
	}
}

func TestEncodedSize(t *testing.T) {
	l := mk(0, 1, 2, 63) // one word, 4 tids
	if n, r := EncodedSize(l, ReprSparse); n != 16 || r != ReprSparse {
		t.Fatalf("sparse EncodedSize = %d/%v", n, r)
	}
	// Auto ships the cheaper encoding: a handful of tids stays sparse
	// (roaring's header and descriptor outweigh them).
	if n, r := EncodedSize(l, ReprAuto); n != 16 || r != ReprSparse {
		t.Fatalf("auto EncodedSize = %d/%v, want sparse", n, r)
	}
	// A dense list — every other tid over 4096 tids — packs into one
	// bitmap container: 8 header + 8 descriptor + 64 words, well under
	// the 8 KiB sparse encoding.
	var dense List
	for i := 0; i < 4096; i += 2 {
		dense = append(dense, itemset.TID(i))
	}
	if n, r := EncodedSize(dense, ReprAuto); n != 16+64*8 || r != ReprRoaring {
		t.Fatalf("auto EncodedSize(dense) = %d/%v, want %d/roaring", n, r, 16+64*8)
	}
	// Widely spread tids: roaring pays per chunk, sparse per tid.
	spread := mk(0, 1_000_000)
	if n, r := EncodedSize(spread, ReprAuto); n != 8 || r != ReprSparse {
		t.Fatalf("auto EncodedSize(spread) = %d/%v, want 8/sparse", n, r)
	}
	if n, _ := EncodedSize(nil, ReprAuto); n != 0 {
		t.Fatalf("empty EncodedSize = %d", n)
	}
	// EncodedSize must agree with the sizes the real encodings report,
	// and auto must return the minimum of the two.
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 50; trial++ {
		l := randomList(rng, 60, 2000)
		nr, _ := EncodedSize(l, ReprRoaring)
		if got := NewRoaring(l).SizeBytes(); nr != got {
			t.Fatalf("EncodedSize roaring %d != Roaring.SizeBytes %d for %v", nr, got, l)
		}
		na, _ := EncodedSize(l, ReprAuto)
		ns, _ := EncodedSize(l, ReprSparse)
		if na != min(ns, nr) {
			t.Fatalf("auto EncodedSize %d is not the minimum of %d/%d", na, ns, nr)
		}
	}
	// A clustered list far apart compresses best under roaring: runs
	// cover each cluster, and untouched chunks cost nothing.
	var clustered List
	for c := 0; c < 4; c++ {
		base := itemset.TID(c * 10 * chunkSize)
		for o := 0; o < 3000; o++ {
			clustered = append(clustered, base+itemset.TID(o))
		}
	}
	if n, r := EncodedSize(clustered, ReprAuto); r != ReprRoaring {
		t.Fatalf("auto EncodedSize(clustered) picked %v (%d bytes), want roaring", r, n)
	}
}

// TestBitsetFarFromZeroStaysCompact: the dense word-packed encoding is
// roaring's bitmap container, and a dense set whose tids cluster near
// 10^9 must occupy one chunk with a word window trimmed to its members,
// not words counted from zero.
func TestBitsetFarFromZeroStaysCompact(t *testing.T) {
	const base = 1_000_000_000
	var l List
	for i := 0; i < 200; i += 2 {
		l = append(l, base+itemset.TID(i))
	}
	r := NewRoaring(l)
	if len(r.keys) != 1 || r.ctrs[0].kind != ctBitmap {
		t.Fatalf("dense set near 10^9 built %d containers (first kind %d), want one bitmap", len(r.keys), r.ctrs[0].kind)
	}
	if n := len(r.ctrs[0].words); n > 5 {
		t.Fatalf("bitmap spans %d words, want <= 5", n)
	}
	if !equalTIDs(r.TIDs(), l) {
		t.Fatalf("round trip lost tids: %v", r.TIDs())
	}
}

// TestBitsetContains probes membership inside a bitmap container, the
// word-packed encoding that replaced the flat bitset, on both sides of
// every member and outside the trimmed word window.
func TestBitsetContains(t *testing.T) {
	var l List
	for i := 64; i < 256; i += 3 {
		l = append(l, itemset.TID(i))
	}
	r := NewRoaring(l)
	if r.ctrs[0].kind != ctBitmap {
		t.Fatalf("container kind %d, want bitmap", r.ctrs[0].kind)
	}
	member := map[itemset.TID]bool{}
	for _, tid := range l {
		member[tid] = true
	}
	for tid := itemset.TID(0); tid < 320; tid++ {
		if r.Contains(tid) != member[tid] {
			t.Fatalf("Contains(%d) = %v, want %v", tid, r.Contains(tid), member[tid])
		}
	}
	if r.Contains(100000) {
		t.Fatal("Contains(100000) = true outside every chunk")
	}
}

func TestKernelStatsAddAndFlush(t *testing.T) {
	var a, b KernelStats
	a.sparseOps, a.roaringWords, a.conversions = 3, 5, 1
	b.sparseOps, b.roaringIntersections = 2, 7
	a.Add(b)
	if a.SparseOps() != 5 || a.WordsTouched() != 5 || a.Conversions() != 1 || a.RoaringIntersections() != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
	var prev KernelStats
	a.Flush(&prev)
	if prev != a {
		t.Fatal("Flush must copy the current totals into prev")
	}
	// A second flush with no new work publishes zero deltas and leaves
	// prev unchanged.
	a.Flush(&prev)
	if prev != a {
		t.Fatal("idempotent Flush changed prev")
	}
}

// assertOpsCounted checks that an intersection kernel charged its ops
// to the stats fields the cluster cost model reads for that operand
// pairing: element comparisons for sparse/mixed dispatches and the
// per-container element/word split for containerized dispatches — and
// that the total charged always equals the returned ops.
func assertOpsCounted(t *testing.T, ks *KernelStats, combo [2]Repr, ops int64) {
	t.Helper()
	total := ks.SparseOps() + ks.WordsTouched() + ks.RoaringElemOps()
	if total != ops {
		t.Fatalf("combo %v/%v: charged %d ops across stats fields, returned ops=%d", combo[0], combo[1], total, ops)
	}
	if combo[0] == ReprSparse || combo[1] == ReprSparse {
		// A sparse operand routes to the merge or probe kernel.
		if ks.SparseOps() != ops {
			t.Fatalf("combo %v/%v: SparseOps=%d, returned ops=%d", combo[0], combo[1], ks.SparseOps(), ops)
		}
	} else if ks.RoaringElemOps()+ks.WordsTouched() != ops {
		t.Fatalf("combo %v/%v: roaring ops %d+%d, returned ops=%d", combo[0], combo[1], ks.RoaringElemOps(), ks.WordsTouched(), ops)
	}
}

func equalTIDs(a, b List) bool {
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
