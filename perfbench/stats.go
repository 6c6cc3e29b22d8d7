package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the candidates pickTail chooses from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie above a percentile
// before it is reported as a tail latency.
const minBeyond = 10

// tail is one reportable tail percentile of a sample.
type tail struct {
	Pct    float64 // the percentile, e.g. 95
	Value  float64 // its value
	Beyond int     // samples strictly above Value
}

// pickTail returns the highest of tailPercentiles with at least
// minBeyond samples strictly above it, and ok=false when even the
// median has fewer (too few samples for any tail).
func pickTail(xs []float64) (tail, bool) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		v := percentile(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return tail{Pct: p, Value: v, Beyond: beyond}, true
		}
	}
	return tail{}, false
}
