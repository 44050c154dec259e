package main

import (
	"sort"
	"testing"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 99, 100, 101, 500, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		for _, p := range []float64{50, 90, 99} {
			got, ok := percentile(xs, p)
			if !ok {
				t.Fatalf("n=%d p%g: not ok", n, p)
			}
			if got.N != n {
				t.Errorf("n=%d p%g: N=%d", n, p, got.N)
			}
			if got.Pct > p {
				t.Errorf("n=%d p%g: reported p%g, above the one asked for", n, p, got.Pct)
			}
			beyond := n - 1 - int(got.Value) // values are 0..n-1, so value v has n-1-v above it
			if beyond < minBeyond {
				t.Errorf("n=%d p%g: %d samples beyond p%g, want >= %d", n, p, beyond, got.Pct, minBeyond)
			}
			// The highest such percentile: one rank higher would leave
			// fewer than minBeyond samples beyond, unless p itself was met.
			if got.Pct < p && beyond > minBeyond {
				t.Errorf("n=%d p%g: lowered to p%g with %d beyond; a higher percentile qualifies", n, p, got.Pct, beyond)
			}
		}
	}
}

func TestPercentileNeedsElevenSamples(t *testing.T) {
	if _, ok := percentile(make([]float64, minBeyond), 50); ok {
		t.Fatal("percentile of 10 samples reported ok")
	}
}

func TestPercentileP99OfThousand(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	got, ok := percentile(xs, 99)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if !ok || got.Pct != 99 || got.Value != sorted[989] || got.N != 1000 {
		t.Fatalf("p99 of 1000 = %+v ok=%v, want p99 = %v over 1000", got, ok, sorted[989])
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
