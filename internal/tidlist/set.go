package tidlist

import (
	"errors"
	"fmt"

	"repro/internal/itemset"
	"repro/internal/obsv"
)

// Repr selects a tid-set representation. The zero value is ReprAuto: the
// adaptive policy picks per equivalence class from density, mirroring how
// the paper localizes all work to a class — the choice, too, needs no
// information beyond the class itself.
type Repr uint8

// The representations.
const (
	// ReprAuto picks sparse or roaring per equivalence class by density
	// (see ChooseRepr).
	ReprAuto Repr = iota
	// ReprSparse is the paper's sorted []TID with the scalar merge loop.
	ReprSparse
	// ReprRoaring is the containerized compressed bitset: 64K-tid
	// chunks holding array, bitmap or run containers, with kernels
	// dispatched per container pair.
	ReprRoaring
)

// ErrInvalidRepresentation reports an unknown representation name.
// ParseRepr errors wrap it, so every layer — Options validation, the
// CLI flag, the daemon's job field — can classify with errors.Is and
// map it to one client-facing failure (HTTP 400 on the daemon).
var ErrInvalidRepresentation = errors.New("tidlist: invalid representation")

// String names the representation as the -repr flag spells it.
func (r Repr) String() string {
	switch r {
	case ReprAuto:
		return "auto"
	case ReprSparse:
		return "sparse"
	case ReprRoaring:
		return "roaring"
	default:
		return fmt.Sprintf("Repr(%d)", uint8(r))
	}
}

// ParseRepr parses a representation name; "" means ReprAuto. The names
// "bitset" and "dense" (the retired flat word-packed encoding) and
// "compressed" are aliases of roaring, whose bitmap containers are the
// dense encoding now. Unknown names fail with an error wrapping
// ErrInvalidRepresentation.
func ParseRepr(s string) (Repr, error) {
	switch s {
	case "", "auto":
		return ReprAuto, nil
	case "sparse":
		return ReprSparse, nil
	case "roaring", "compressed", "bitset", "dense":
		return ReprRoaring, nil
	default:
		return 0, fmt.Errorf("%w: %q (want auto, sparse or roaring)", ErrInvalidRepresentation, s)
	}
}

// DenseThreshold is the density (support / tid-range) at and above which
// ChooseRepr packs a class into roaring. At 1/32 a word-packed bitmap is
// exactly as large as the sparse list (64 tids per 8-byte word vs 4 bytes
// per tid = break-even at 2 set bits per word); the intersection kernel
// breaks even far earlier, so the byte break-even is the conservative
// switch point. Within each 64K-tid chunk roaring then makes the finer
// bitmap-or-array choice itself.
const DenseThreshold = 1.0 / 32

// ChooseRepr resolves a representation: an explicit request passes
// through, and ReprAuto picks roaring when the density support/tidRange
// reaches DenseThreshold and the sparse list below it. support is the
// (average) cardinality of the tid-sets under consideration and tidRange
// the span of TIDs they cover.
func ChooseRepr(r Repr, support, tidRange int) Repr {
	if r != ReprAuto {
		return r
	}
	if support <= 0 || tidRange <= 0 {
		return ReprSparse
	}
	if float64(support) >= DenseThreshold*float64(tidRange) {
		return ReprRoaring
	}
	return ReprSparse
}

// Set is a tid-set under some representation. The mining recursion works
// exclusively through this interface plus the kernel dispatch functions
// (IntersectSets, IntersectSetsSC, DiffSets), so every eclat variant is
// representation-agnostic.
type Set interface {
	// Support returns the cardinality of the set.
	Support() int
	// SizeBytes returns the encoded size under this representation, the
	// figure the communication and disk cost models charge.
	SizeBytes() int64
	// Repr identifies the representation.
	Repr() Repr
	// AppendTIDs appends the members in increasing order to dst.
	AppendTIDs(dst List) List
}

// Interface conformance of the sparse representation (see tidlist.go for
// the List methods shared with the pre-abstraction API).
var (
	_ Set = List(nil)
	_ Set = (*Roaring)(nil)
)

// SparseList is the sorted-slice representation under its role name: the
// existing List type is the sparse concrete type of the Set abstraction.
type SparseList = List

// Repr identifies the sparse representation.
func (l List) Repr() Repr { return ReprSparse }

// AppendTIDs appends the members to dst (they are already sorted).
func (l List) AppendTIDs(dst List) List { return append(dst, l...) }

// TIDsOf materializes any set as a sorted tid-list without copying when
// it is already sparse.
func TIDsOf(s Set) List {
	if l, ok := s.(List); ok {
		return l
	}
	return s.AppendTIDs(make(List, 0, s.Support()))
}

// CloneSet returns an independent copy of s under the same
// representation, detaching it from any scratch storage.
func CloneSet(s Set) Set {
	switch v := s.(type) {
	case List:
		return v.Clone()
	case *Roaring:
		return v.Clone()
	default:
		return TIDsOf(s)
	}
}

// Convert re-encodes s under r (ReprAuto converts nothing). A set already
// in the requested representation is returned unchanged; real conversions
// are counted in ks.
func Convert(s Set, r Repr, ks *KernelStats) Set {
	if r == ReprAuto || s.Repr() == r {
		return s
	}
	ks.conversions++
	if r == ReprRoaring {
		return NewRoaring(TIDsOf(s))
	}
	return TIDsOf(s).Clone()
}

// KernelStats accumulates kernel-dispatch counts for one mining run. The
// hot loop updates only this struct; Flush publishes deltas to the
// process metrics registry at class granularity, keeping atomics off the
// per-intersection path (same discipline as eclat's Stats).
type KernelStats struct {
	sparseIntersections  int64 // scalar merge-kernel dispatches
	mixedIntersections   int64 // sparse-probe-into-roaring dispatches
	roaringIntersections int64 // containerized-kernel dispatches
	sparseOps            int64 // element comparisons by the merge kernel
	roaringElemOps       int64 // uint16 element / run-pair comparisons in containers
	roaringWords         int64 // 64-bit words touched by bitmap containers
	conversions          int64 // representation re-encodings
}

// SparseOps returns the element comparisons performed by sparse (and
// mixed) kernel dispatches — the unit the cluster model charges at
// OpIntersect cost.
func (k *KernelStats) SparseOps() int64 { return k.sparseOps }

// WordsTouched returns the 64-bit words touched inside roaring bitmap
// containers, the one word kernel — the unit the cluster model charges
// at its word-op cost.
func (k *KernelStats) WordsTouched() int64 { return k.roaringWords }

// Conversions returns the number of representation re-encodings.
func (k *KernelStats) Conversions() int64 { return k.conversions }

// RoaringIntersections returns the number of containerized-kernel
// dispatches (roaring-roaring pairs, and roaring minus a sparse list).
func (k *KernelStats) RoaringIntersections() int64 { return k.roaringIntersections }

// RoaringElemOps returns the uint16 element and run-pair comparisons
// performed inside array and run containers — charged per-container at
// the cluster model's element-op cost.
func (k *KernelStats) RoaringElemOps() int64 { return k.roaringElemOps }

// Add accumulates other into k.
func (k *KernelStats) Add(other KernelStats) {
	k.sparseIntersections += other.sparseIntersections
	k.mixedIntersections += other.mixedIntersections
	k.roaringIntersections += other.roaringIntersections
	k.sparseOps += other.sparseOps
	k.roaringElemOps += other.roaringElemOps
	k.roaringWords += other.roaringWords
	k.conversions += other.conversions
}

// Kernel-dispatch metric names and metrics (see /metricsz).
const (
	mnSparseDispatch  = "tidlist_intersect_sparse_total"
	mnMixedDispatch   = "tidlist_intersect_mixed_total"
	mnRoaringDispatch = "tidlist_intersect_roaring_total"
	mnSparseOps       = "tidlist_sparse_ops_total"
	mnRoaringElemOps  = "tidlist_roaring_elem_ops_total"
	mnRoaringWords    = "tidlist_roaring_words_total"
	mnConversions     = "tidlist_conversions_total"
)

// Container-construction counter family: how many containers the
// roaring builder has produced, total and per shape. Published per set
// build (see Roaring.SetTIDs), never per chunk.
const (
	mnRoaringContainers       = "tidlist_roaring_containers_total"
	mnRoaringArrayContainers  = "tidlist_roaring_array_containers_total"
	mnRoaringBitmapContainers = "tidlist_roaring_bitmap_containers_total"
	mnRoaringRunContainers    = "tidlist_roaring_run_containers_total"
)

var (
	mSparseDispatch  = obsv.Default.Counter(mnSparseDispatch, "tid-set intersections dispatched to the sparse merge kernel")
	mMixedDispatch   = obsv.Default.Counter(mnMixedDispatch, "tid-set intersections dispatched to the mixed sparse-probe kernel")
	mRoaringDispatch = obsv.Default.Counter(mnRoaringDispatch, "tid-set intersections dispatched to the containerized roaring kernel")
	mSparseOps       = obsv.Default.Counter(mnSparseOps, "element comparisons performed by the sparse merge kernel")
	mRoaringElemOps  = obsv.Default.Counter(mnRoaringElemOps, "uint16 element and run-pair comparisons inside roaring containers")
	mRoaringWords    = obsv.Default.Counter(mnRoaringWords, "64-bit words touched inside roaring bitmap containers")
	mConversions     = obsv.Default.Counter(mnConversions, "tid-set representation re-encodings")

	mRoaringContainers       = obsv.Default.Counter(mnRoaringContainers, "roaring containers built, all shapes")
	mRoaringArrayContainers  = obsv.Default.Counter(mnRoaringArrayContainers, "roaring array containers built")
	mRoaringBitmapContainers = obsv.Default.Counter(mnRoaringBitmapContainers, "roaring bitmap containers built")
	mRoaringRunContainers    = obsv.Default.Counter(mnRoaringRunContainers, "roaring run containers built")
)

// publishContainerCounts flushes one build's per-shape container tally,
// indexed by container kind.
func publishContainerCounts(built [3]int64) {
	total := built[ctArray] + built[ctBitmap] + built[ctRun]
	if total == 0 {
		return
	}
	mRoaringContainers.Add(total)
	mRoaringArrayContainers.Add(built[ctArray])
	mRoaringBitmapContainers.Add(built[ctBitmap])
	mRoaringRunContainers.Add(built[ctRun])
}

// Flush publishes the delta between prev and k to the process metrics
// registry and copies k into prev.
func (k *KernelStats) Flush(prev *KernelStats) {
	mSparseDispatch.Add(k.sparseIntersections - prev.sparseIntersections)
	mMixedDispatch.Add(k.mixedIntersections - prev.mixedIntersections)
	mRoaringDispatch.Add(k.roaringIntersections - prev.roaringIntersections)
	mSparseOps.Add(k.sparseOps - prev.sparseOps)
	mRoaringElemOps.Add(k.roaringElemOps - prev.roaringElemOps)
	mRoaringWords.Add(k.roaringWords - prev.roaringWords)
	mConversions.Add(k.conversions - prev.conversions)
	*prev = *k
}

// IntersectSets intersects a and b through the representation-dispatched
// kernel, reusing scratch (a Set previously returned by a kernel in this
// package, or nil) for the result's storage. It returns the result and
// the kernel operations performed (element comparisons for the sparse
// and mixed kernels, container work for the roaring kernel).
func IntersectSets(scratch Set, a, b Set, ks *KernelStats) (Set, int) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out := IntersectInto(sparseScratch(scratch, min(len(x), len(y))), x, y)
			ops := len(x) + len(y)
			ks.sparseOps += int64(ops)
			return out, ops
		case *Roaring:
			return probeIntersectRoaring(scratch, x, y, ks)
		}
	case *Roaring:
		switch y := b.(type) {
		case List:
			return probeIntersectRoaring(scratch, y, x, ks)
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaring(roaringScratch(scratch), x, y, ks)
		}
	}
	return intersectGeneric(a, b, ks)
}

// IntersectSetsSC is IntersectSets with the minimum-support short circuit
// (section 5.3). When ok is false the returned set is an unusable partial
// prefix retained only so callers can reuse its storage — the same
// contract as IntersectShortCircuit, now enforced across every kernel.
// ops is reported even on a mid-scan abort, so work accounting stays
// exact for short-circuited intersections.
func IntersectSetsSC(scratch Set, a, b Set, minsup int, ks *KernelStats) (result Set, ops int, ok bool) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out, ops, ok := IntersectShortCircuit(sparseScratch(scratch, min(len(x), len(y))), x, y, minsup)
			ks.sparseOps += int64(ops)
			return out, ops, ok
		case *Roaring:
			return probeIntersectRoaringSC(scratch, x, y, minsup, ks)
		}
	case *Roaring:
		switch y := b.(type) {
		case List:
			return probeIntersectRoaringSC(scratch, y, x, minsup, ks)
		case *Roaring:
			ks.roaringIntersections++
			return intersectRoaringSC(roaringScratch(scratch), x, y, minsup, ks)
		}
	}
	out, ops := intersectGeneric(a, b, ks)
	return out, ops, out.Support() >= minsup
}

// DiffSets computes a \ b through the representation-dispatched kernel
// (AND NOT inside roaring bitmap containers), reusing scratch like
// IntersectSets.
func DiffSets(scratch Set, a, b Set, ks *KernelStats) (Set, int) {
	switch x := a.(type) {
	case List:
		switch y := b.(type) {
		case List:
			ks.sparseIntersections++
			out := DiffInto(sparseScratch(scratch, len(x)), x, y)
			ops := len(x) + len(y)
			ks.sparseOps += int64(ops)
			return out, ops
		case *Roaring:
			// Keep the elements of x outside y, walking y's chunks in
			// step with the sorted probes.
			ks.mixedIntersections++
			dst := sparseScratch(scratch, len(x))
			ci := 0
			for _, t := range x {
				k := chunkKey(t)
				for ci < len(y.keys) && y.keys[ci] < k {
					ci++
				}
				if ci >= len(y.keys) || y.keys[ci] != k || !containerContains(&y.ctrs[ci], chunkLow(t)) {
					dst = append(dst, t)
				}
			}
			ks.sparseOps += int64(len(x))
			return dst, len(x)
		}
	case *Roaring:
		switch y := b.(type) {
		case *Roaring:
			ks.roaringIntersections++
			return diffRoaring(roaringScratch(scratch), x, y, ks)
		case List:
			ks.roaringIntersections++
			return diffRoaringList(roaringScratch(scratch), x, y, ks)
		}
	}
	a2, b2 := TIDsOf(a), TIDsOf(b)
	ks.sparseIntersections++
	ops := len(a2) + len(b2)
	ks.sparseOps += int64(ops)
	return DiffInto(sparseScratch(scratch, len(a2)), a2, b2), ops
}

// intersectGeneric handles Set implementations outside this package by
// materializing both sides (slow path; none exist in-repo).
func intersectGeneric(a, b Set, ks *KernelStats) (Set, int) {
	x, y := TIDsOf(a), TIDsOf(b)
	ks.sparseIntersections++
	ops := len(x) + len(y)
	ks.sparseOps += int64(ops)
	return Intersect(x, y), ops
}

// sparseScratch recovers a List scratch buffer from a previously returned
// Set (or allocates one with the given capacity hint).
func sparseScratch(scratch Set, capHint int) List {
	if l, ok := scratch.(List); ok {
		return l[:0]
	}
	return make(List, 0, capHint)
}

// Bounds returns the smallest and largest TID of s; ok is false when the
// set is empty. The adaptive policy uses it to measure a class's tid span
// without materializing anything.
func Bounds(s Set) (lo, hi itemset.TID, ok bool) {
	switch v := s.(type) {
	case List:
		if len(v) == 0 {
			return 0, 0, false
		}
		return v[0], v[len(v)-1], true
	case *Roaring:
		if len(v.keys) == 0 {
			return 0, 0, false
		}
		last := len(v.keys) - 1
		lo = chunkTID(v.keys[0], containerMin(&v.ctrs[0]))
		hi = chunkTID(v.keys[last], containerMax(&v.ctrs[last]))
		return lo, hi, true
	default:
		l := TIDsOf(s)
		if len(l) == 0 {
			return 0, 0, false
		}
		return l[0], l[len(l)-1], true
	}
}

// HashTIDs returns the order-independent tid-sum hash used by the closed
// set accumulators, computed without materializing roaring sets.
func HashTIDs(s Set) int64 {
	switch v := s.(type) {
	case List:
		var h int64
		for _, t := range v {
			h += int64(t)
		}
		return h
	case *Roaring:
		var h int64
		for i, key := range v.keys {
			h += containerHashSum(key, &v.ctrs[i])
		}
		return h
	default:
		var h int64
		for _, t := range TIDsOf(s) {
			h += int64(t)
		}
		return h
	}
}

// EncodedSize returns the wire/disk size of a tid-list under r, and the
// concrete representation chosen (ReprAuto picks the smaller of the
// sparse and roaring encodings — the transformation phase ships each
// list in whichever encoding is cheaper, exactly like the true byte size
// the cluster model charges).
func EncodedSize(l List, r Repr) (int64, Repr) {
	sparse := l.SizeBytes()
	switch r {
	case ReprSparse:
		return sparse, ReprSparse
	case ReprRoaring:
		return roaringEncodedSize(l), ReprRoaring
	}
	if roaring := roaringEncodedSize(l); roaring < sparse {
		return roaring, ReprRoaring
	}
	return sparse, ReprSparse
}
