package tidlist

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/itemset"
)

// fuzzList decodes raw fuzz bytes into a sorted duplicate-free tid-list.
// Every pair of bytes becomes one candidate tid, reduced modulo a
// universe derived from the same input so the fuzzer explores both dense
// (small universe) and sparse (large universe) regimes — the two sides
// of the adaptive policy. Universes above 64K spread the tids across
// multiple roaring chunks (stretched so candidates land near chunk
// boundaries), exercising the key-merge and container-boundary paths.
func fuzzList(raw []byte, universe uint32) List {
	if universe == 0 {
		universe = 1
	}
	seen := map[itemset.TID]bool{}
	for i := 0; i+1 < len(raw); i += 2 {
		v := uint32(binary.LittleEndian.Uint16(raw[i:]))
		if universe > 1<<16 {
			// Scale 16-bit candidates up so they cover the wider universe;
			// keep the low bits so values straddle chunk boundaries.
			v = (v * (universe >> 16)) % universe
		} else {
			v %= universe
		}
		seen[itemset.TID(v)] = true
	}
	out := make(List, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fuzzUniverse maps the selector byte onto 64..2^23 tids, covering
// densities from well above DenseThreshold down to well below it and
// tid spans from a fraction of one roaring chunk up to 128 chunks.
func fuzzUniverse(sel uint8) uint32 { return 64 << (sel % 18) }

func fuzzSeed(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, []byte{2, 0, 3, 0, 4, 0}, uint8(0), uint8(2))
	f.Add([]byte{}, []byte{10, 0}, uint8(3), uint8(0))
	f.Add([]byte{255, 255, 0, 0}, []byte{255, 255}, uint8(10), uint8(1))
	f.Add([]byte{7, 1, 9, 1, 11, 1, 13, 1}, []byte{7, 1, 13, 1}, uint8(5), uint8(30))
}

// FuzzIntersectKernels proves the dispatch targets (sparse merge,
// containerized roaring, mixed probe) agree with the reference sparse
// intersection for every operand pairing.
func FuzzIntersectKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, _ uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		want := Intersect(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := IntersectSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: got %v, want %v (a=%v b=%v)", combo[0], combo[1], TIDsOf(got), want, a, b)
			}
			if got.Support() != len(want) || ops < 0 {
				t.Fatalf("combo %v/%v: support %d ops %d, want support %d", combo[0], combo[1], got.Support(), ops, len(want))
			}
		}
	})
}

// FuzzDiffKernels proves the difference kernels (merge, container AND
// NOT, probe)
// agree with the reference sparse difference for every operand pairing.
func FuzzDiffKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, _ uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		want := Diff(a, b)
		for _, combo := range reprCombos {
			var ks KernelStats
			got, ops := DiffSets(nil, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(got), want) {
				t.Fatalf("combo %v/%v: got %v, want %v (a=%v b=%v)", combo[0], combo[1], TIDsOf(got), want, a, b)
			}
			if got.Support() != len(want) || ops < 0 {
				t.Fatalf("combo %v/%v: support %d ops %d", combo[0], combo[1], got.Support(), ops)
			}
		}
	})
}

// FuzzShortCircuitKernels proves the short-circuit contract holds for
// every kernel: ok is exactly |a∩b| >= minsup, the content is the full
// intersection when ok, and an aborted result is still safe to reuse as
// scratch (the partial-prefix contract).
func FuzzShortCircuitKernels(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, rb []byte, sel, ms uint8) {
		u := fuzzUniverse(sel)
		a, b := fuzzList(ra, u), fuzzList(rb, u)
		minsup := int(ms)
		full := Intersect(a, b)
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
			// The only valid use of an aborted result: scratch storage.
			again, _ := IntersectSets(got, asRepr(a, combo[0]), asRepr(b, combo[1]), &ks)
			if !equalTIDs(TIDsOf(again), full) {
				t.Fatalf("combo %v/%v: result unusable as scratch after SC", combo[0], combo[1])
			}
		}
	})
}

// FuzzRoundTrip proves sparse -> roaring -> sparse conversion is lossless
// and that both representations agree on
// Support, Bounds, HashTIDs, Contains, and the stable serialization.
func FuzzRoundTrip(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, ra, _ []byte, sel, _ uint8) {
		l := fuzzList(ra, fuzzUniverse(sel))
		slo, shi, sok := Bounds(l)
		var ks KernelStats
		for _, r := range []Repr{ReprRoaring} {
			packed := Convert(l, r, &ks)
			back := TIDsOf(Convert(packed, ReprSparse, &ks))
			if !equalTIDs(back, l) {
				t.Fatalf("%v round trip: %v -> %v", r, l, back)
			}
			if packed.Support() != len(l) {
				t.Fatalf("%v Support %d, want %d", r, packed.Support(), len(l))
			}
			if HashTIDs(packed) != HashTIDs(l) {
				t.Fatalf("%v HashTIDs disagrees with sparse", r)
			}
			plo, phi, pok := Bounds(packed)
			if sok != pok || slo != plo || shi != phi {
				t.Fatalf("Bounds disagree: sparse %d..%d/%v %v %d..%d/%v", slo, shi, sok, r, plo, phi, pok)
			}
			if n, _ := EncodedSize(l, r); len(l) > 0 && n != packed.SizeBytes() {
				t.Fatalf("%v EncodedSize %d != SizeBytes %d", r, n, packed.SizeBytes())
			}
		}
		// Roaring-specific: the stable serialization round trips and
		// Contains answers agree with membership near chunk boundaries.
		roaring := NewRoaring(l)
		dec, err := RoaringFromBytes(AppendRoaringBytes(nil, roaring))
		if err != nil {
			t.Fatalf("RoaringFromBytes: %v", err)
		}
		if !equalTIDs(dec.TIDs(), l) {
			t.Fatalf("roaring serialization round trip: %v -> %v", l, dec.TIDs())
		}
		member := map[itemset.TID]bool{}
		for _, tid := range l {
			member[tid] = true
		}
		for _, tid := range l {
			for _, probe := range []itemset.TID{tid, tid + 1, tid - 1} {
				if probe >= 0 && roaring.Contains(probe) != member[probe] {
					t.Fatalf("roaring Contains(%d) = %v, want %v", probe, roaring.Contains(probe), member[probe])
				}
			}
		}
	})
}
