package tidlist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/itemset"
)

// Stable on-disk serialization of the two tid-set representations, plus
// zero-copy decoding for memory-mapped storage (internal/store). The
// formats are little-endian and versioned by the store's bundle header;
// they are the "stable serialization" contract the persistent vertical
// dataset store pins with round-trip fuzzing.
//
// Sparse payload:   4 bytes per member — the TIDs as uint32, increasing.
// Roaring payload:  see the layout comment above AppendRoaringBytes.
//
// On little-endian hosts both decoders return views that alias the input
// buffer directly (a List over the tid bytes, containers over the array
// and word bytes) when the buffer is suitably aligned — the mmap fast
// path. The
// views follow the package's immutability contract: like every Set
// handed to the kernels as an operand they are never written through,
// and they must never be passed in scratch position (kernels write
// scratch storage; a mapped view is read-only memory).

// nativeLittleEndian reports whether the host stores integers
// little-endian, the precondition for aliasing file bytes as []TID or
// []uint64 without a byte-order pass.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendListBytes appends the stable sparse encoding of l to dst.
func AppendListBytes(dst []byte, l List) []byte {
	for _, t := range l {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	return dst
}

// ListFromBytes decodes a sparse payload. On a little-endian host with a
// 4-byte-aligned buffer the returned List aliases b without copying;
// otherwise it is an independent copy. The aliasing view is immutable by
// contract (see the package comment above).
func ListFromBytes(b []byte) (List, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("tidlist: sparse payload length %d is not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*itemset.TID)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make(List, n)
	for i := range out {
		out[i] = itemset.TID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// Roaring payload layout (little-endian, offsets relative to the payload
// start, which the store places on an 8-byte boundary):
//
//	header      8 bytes   count uint32, nContainers uint32
//	descriptors 8 each    key uint16 | kind uint8 | 0 pad | aux uint32
//	payloads              in key order, each padded to 8 bytes
//
// aux is the per-kind shape word: the cardinality for arrays, the run
// count for runs, and wlo<<16 | wordCount for bitmaps (the bitmap
// cardinality is recomputed by popcount during decode, which doubles as
// validation). Payload bytes are uint16 members for arrays, uint16
// (start, length-1) pairs for runs, uint64 words for bitmaps. Because
// the header and every descriptor and padded payload are 8-byte
// multiples, an 8-aligned buffer keeps every bitmap's words 8-aligned
// and every array 2-aligned — the zero-copy mmap precondition.
const (
	roaringPayloadHeader = 8
	roaringDescSize      = int64(8)
)

// containerPayloadLen returns the unpadded payload byte length of c.
func containerPayloadLen(c *container) int {
	if c.kind == ctBitmap {
		return 8 * len(c.words)
	}
	return 2 * len(c.elems) // array members or run pairs
}

// paddedPayloadLen rounds a payload length up to the 8-byte boundary
// that keeps the next payload aligned.
func paddedPayloadLen(n int) int64 {
	return int64(n+7) &^ 7
}

// AppendRoaringBytes appends the stable containerized encoding of r to
// dst. An empty set encodes to zero bytes, matching the other
// representations.
func AppendRoaringBytes(dst []byte, r *Roaring) []byte {
	if len(r.ctrs) == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.ctrs)))
	for i := range r.ctrs {
		c := &r.ctrs[i]
		dst = binary.LittleEndian.AppendUint16(dst, r.keys[i])
		dst = append(dst, c.kind, 0)
		var aux uint32
		switch c.kind {
		case ctArray:
			aux = uint32(c.card)
		case ctRun:
			aux = uint32(len(c.elems) / 2)
		default: // ctBitmap
			aux = uint32(c.wlo)<<16 | uint32(len(c.words))
		}
		dst = binary.LittleEndian.AppendUint32(dst, aux)
	}
	for i := range r.ctrs {
		c := &r.ctrs[i]
		n := containerPayloadLen(c)
		if c.kind == ctBitmap {
			for _, w := range c.words {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		} else {
			for _, v := range c.elems {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
		}
		for pad := int(paddedPayloadLen(n)) - n; pad > 0; pad-- {
			dst = append(dst, 0)
		}
	}
	return dst
}

// RoaringFromBytes decodes a containerized payload, validating every
// invariant the kernels rely on: sorted keys, sorted strict arrays,
// sorted non-adjacent runs, trimmed bitmaps with matching popcounts, and
// a total cardinality matching the header. On a little-endian host with
// an 8-byte-aligned buffer the container storage aliases b without
// copying; the views are immutable by contract (see the package comment
// above).
func RoaringFromBytes(b []byte) (*Roaring, error) {
	if len(b) == 0 {
		return &Roaring{}, nil
	}
	if len(b) < roaringPayloadHeader {
		return nil, fmt.Errorf("tidlist: roaring payload length %d is shorter than the header", len(b))
	}
	count := int(binary.LittleEndian.Uint32(b))
	nc := int(binary.LittleEndian.Uint32(b[4:]))
	if nc == 0 || nc > 1<<16 {
		return nil, fmt.Errorf("tidlist: roaring payload container count %d out of range", nc)
	}
	descEnd := roaringPayloadHeader + 8*nc
	if len(b) < descEnd {
		return nil, fmt.Errorf("tidlist: roaring payload truncated in descriptors")
	}
	alias := nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0
	r := &Roaring{
		keys: make([]uint16, nc),
		ctrs: make([]container, nc),
	}
	off := descEnd
	total := 0
	for i := 0; i < nc; i++ {
		d := b[roaringPayloadHeader+8*i:]
		key := binary.LittleEndian.Uint16(d)
		kind := d[2]
		aux := binary.LittleEndian.Uint32(d[4:])
		if i > 0 && key <= r.keys[i-1] {
			return nil, fmt.Errorf("tidlist: roaring payload keys not strictly increasing at container %d", i)
		}
		r.keys[i] = key
		c := &r.ctrs[i]
		c.kind = kind
		var n int // unpadded payload length
		switch kind {
		case ctArray:
			if aux == 0 || aux > chunkSize {
				return nil, fmt.Errorf("tidlist: roaring array container %d cardinality %d out of range", i, aux)
			}
			c.card = int32(aux)
			n = 2 * int(aux)
		case ctRun:
			if aux == 0 || aux > chunkSize/2 {
				return nil, fmt.Errorf("tidlist: roaring run container %d run count %d out of range", i, aux)
			}
			n = 4 * int(aux)
		case ctBitmap:
			wlo, nw := int(aux>>16), int(aux&0xffff)
			if nw == 0 || wlo+nw > chunkWords {
				return nil, fmt.Errorf("tidlist: roaring bitmap container %d window [%d,%d) out of range", i, wlo, wlo+nw)
			}
			c.wlo = int32(wlo)
			n = 8 * nw
		default:
			return nil, fmt.Errorf("tidlist: roaring container %d has unknown kind %d", i, kind)
		}
		end := off + int(paddedPayloadLen(n))
		if end > len(b) {
			return nil, fmt.Errorf("tidlist: roaring payload truncated in container %d", i)
		}
		p := b[off : off+n]
		if kind == ctBitmap {
			nw := n / 8
			if alias {
				c.words = unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), nw)
			} else {
				c.words = make([]uint64, nw)
				for wi := range c.words {
					c.words[wi] = binary.LittleEndian.Uint64(p[8*wi:])
				}
			}
			if c.words[0] == 0 || c.words[nw-1] == 0 {
				return nil, fmt.Errorf("tidlist: roaring bitmap container %d has untrimmed zero boundary words", i)
			}
			pop := 0
			for _, w := range c.words {
				pop += bits.OnesCount64(w)
			}
			c.card = int32(pop)
		} else {
			ne := n / 2
			if alias {
				c.elems = unsafe.Slice((*uint16)(unsafe.Pointer(&p[0])), ne)
			} else {
				c.elems = make([]uint16, ne)
				for ei := range c.elems {
					c.elems[ei] = binary.LittleEndian.Uint16(p[2*ei:])
				}
			}
			if err := validateContainerElems(c, i); err != nil {
				return nil, err
			}
		}
		total += int(c.card)
		off = end
	}
	if off != len(b) {
		return nil, fmt.Errorf("tidlist: roaring payload has %d trailing bytes", len(b)-off)
	}
	if total != count {
		return nil, fmt.Errorf("tidlist: roaring payload cardinality %d does not match stored count %d", total, count)
	}
	r.count = count
	return r, nil
}

// validateContainerElems checks the element invariants of a decoded
// array or run container and fills in the run cardinality.
func validateContainerElems(c *container, i int) error {
	if c.kind == ctArray {
		for ei := 1; ei < len(c.elems); ei++ {
			if c.elems[ei] <= c.elems[ei-1] {
				return fmt.Errorf("tidlist: roaring array container %d not strictly increasing", i)
			}
		}
		return nil
	}
	// ctRun: (start, length-1) pairs, sorted, non-adjacent, in-chunk.
	card := int32(0)
	prevEnd := -2
	for ei := 0; ei < len(c.elems); ei += 2 {
		start, rl := int(c.elems[ei]), int(c.elems[ei+1])
		if start <= prevEnd+1 {
			return fmt.Errorf("tidlist: roaring run container %d has overlapping or adjacent runs", i)
		}
		end := start + rl
		if end >= chunkSize {
			return fmt.Errorf("tidlist: roaring run container %d run [%d,%d] exceeds the chunk", i, start, end)
		}
		prevEnd = end
		card += int32(rl) + 1
	}
	c.card = card
	return nil
}

// EncodedLen returns the exact payload size AppendListBytes/
// AppendRoaringBytes would produce for s, the figure the store sizes
// bundle records with.
func EncodedLen(s Set) int {
	switch v := s.(type) {
	case List:
		return 4 * len(v)
	case *Roaring:
		return int(v.SizeBytes())
	default:
		return 4 * s.Support()
	}
}
