package main

import (
	"fmt"

	"repro/internal/mining"
)

// fingerprint identifies a mining result independently of itemset order:
// the itemset count plus the wrapping sum of one 64-bit hash per
// (itemset, support) pair. Two results with equal fingerprints hold the
// same pairs with overwhelming probability, whichever encoding, driver
// or worker count produced them.
type fingerprint struct {
	N   int
	Sum uint64
}

func (f fingerprint) String() string { return fmt.Sprintf("%d/%016x", f.N, f.Sum) }

// fingerprintOf hashes every (itemset, support) pair of res.
func fingerprintOf(res *mining.Result) fingerprint {
	f := fingerprint{N: len(res.Itemsets)}
	for _, fi := range res.Itemsets {
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for _, it := range fi.Set {
			h = (h ^ uint64(it)) * 1099511628211
		}
		h = (h ^ (uint64(fi.Support) << 32) ^ uint64(len(fi.Set))) * 1099511628211
		f.Sum += mix64(h)
	}
	return f
}

// mix64 is the splitmix64 finalizer: it spreads FNV's weak low bits so
// the order-independent sum does not cancel structured inputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
