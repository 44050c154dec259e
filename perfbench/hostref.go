package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// The benchmark's host is a few vCPUs of a shared machine, and its speed
// drifts with the neighbours' load: on the 2-vCPU VM the benchmark was
// built on, the same checked cell took 68 to 102 ms as a median over
// 8 s, from one process to the next, and the drift lasts from seconds to
// minutes, so longer runs do not average it away. A fixed reference
// kernel timed on the same goroutine, between the timed operations,
// drifts with it: the ratio of the two medians spread about a third as
// much. So the sweep and gap timings and the set-up time are reported at
// a reference host speed: each operation's wall-clock value is scaled by
// how much slower or faster than refNominalMS the kernel ran just before
// and just after it, and the metric aggregates the scaled values as it
// would the raw ones. The kernel is the benchmark's own code and never
// calls the program under test, so a change to the program moves the
// metric and not the scale. The raw wall-clock values are printed above
// the JSON line.

// refNominalMS is a typical median kernel time on that VM, which ranged
// from about 2 to 5 ms with the host's load, so scaled values read in the
// range of raw ones.
const refNominalMS = 4.0

// refSink keeps the kernel's result live.
var refSink int

// refKernel is fixed work with the simulator's mix of sorting and
// branching, hash-map updates and short-lived allocations, so that it
// slows down with the host the way the simulator and the solver do.
func refKernel() {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]int, 32_000)
	for i := range xs {
		xs[i] = r.IntN(1 << 30)
	}
	slices.Sort(xs)
	m := make(map[int]int, 1024)
	for i := 0; i < 24_000; i++ {
		m[xs[i]&1023] += i
	}
	refSink += len(m) + xs[7]
}

// hostSlowdown runs the kernel n times on each of par goroutines at once
// and returns the median over the n rounds of the slowest goroutine's
// time, over refNominalMS: how many times slower than nominal the host
// runs now for work spread over par CPUs, which waits for the slowest of
// them. A throughput is multiplied by it and a latency divided by it.
func hostSlowdown(n, par int) float64 {
	ts := make([]float64, n)
	took := make([]time.Duration, par)
	for i := range ts {
		var wg sync.WaitGroup
		for p := range took {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				refKernel()
				took[p] = time.Since(t0)
			}()
		}
		wg.Wait()
		ts[i] = ms(slices.Max(took))
	}
	return median(ts) / refNominalMS
}

// hostRef pairs each operation of a phase with the host's speed around
// it: read once before the first operation and once after each, each
// reading the median of n rounds of par kernel runs at once.
type hostRef struct {
	n, par int
	last   float64   // the latest reading
	ops    []float64 // per operation: the mean of the readings before and after
}

func newHostRef(n, par int) *hostRef {
	return &hostRef{n: n, par: par, last: hostSlowdown(n, par)}
}

// done records the slowdown around the operation that just finished and
// returns it.
func (h *hostRef) done() float64 {
	now := hostSlowdown(h.n, h.par)
	s := (h.last + now) / 2
	h.last = now
	h.ops = append(h.ops, s)
	return s
}

// median is the phase's typical slowdown, for the raw-value lines.
func (h *hostRef) median() float64 { return median(h.ops) }
