package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minBeyond is how many samples must lie above a reported percentile.
// A tail percentile read off fewer samples is one outlier's value.
const minBeyond = 10

// tail is a percentile read off a sample set.
type tail struct {
	Pct   float64 // the percentile actually reported
	Value float64
	N     int // samples it was read from
}

// percentile returns the nearest-rank p-th percentile of xs, lowered to
// the highest percentile that still has at least minBeyond samples above
// it. ok is false when xs has too few samples for any such percentile.
func percentile(xs []float64, p float64) (t tail, ok bool) {
	n := len(xs)
	t.N = n
	if n <= minBeyond {
		return t, false
	}
	if most := 100 * float64(n-minBeyond) / float64(n); p > most {
		p = most
	}
	idx := rank(n, p)
	for idx > 0 && n-(idx+1) < minBeyond { // guard float rounding at the edge
		idx--
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.Pct, t.Value = p, s[idx]
	return t, true
}

// rank is the zero-based nearest-rank index of the p-th percentile.
func rank(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(n-1, idx))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
