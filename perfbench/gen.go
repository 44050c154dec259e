package main

import (
	"math/rand/v2"

	"macroop/internal/optsched"
	"macroop/internal/service"
	"macroop/internal/workload"
)

// Instruction budgets. Each kind of cell owns a disjoint budget range, so
// no two kinds can ever share a fingerprint: the budget is part of it.
const (
	tinyInsts  = 1_000  // set-up: first-touch program generation
	hotInsts   = 3_000  // + [0, 97): the serve hot set
	freshInsts = 5_000  // + [0, 89) + round: serve's fresh cells
	sweepInsts = 50_000 // + [0, 97) + matrix: sweep matrices
)

// scheds are the five scheduler models every matrix and hot set covers.
var scheds = []string{"base", "2cycle", "mop", "sf-squash", "sf-scoreboard"}

// rng returns a generator for one input stream of one seed. Streams are
// independent, so adding a stream never shifts another's sequence.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Stream identifiers for rng.
const (
	streamBudget = iota + 1
	streamSweep
	streamServe
	streamFresh
	streamGap
)

func intp(v int) *int { return &v }

// hotSet is the serve hot set: every benchmark under every scheduler at
// one seed-chosen short budget. Set-up runs it once, so every later
// request for it is a cache hit.
func hotSet(seed uint64) []service.SimRequest {
	insts := int64(hotInsts + rng(seed, streamBudget).IntN(97))
	var out []service.SimRequest
	for _, b := range workload.Names() {
		for _, s := range scheds {
			out = append(out, service.SimRequest{Benchmark: b, Config: service.ConfigSpec{Sched: s}, MaxInsts: insts})
		}
	}
	return out
}

// tinyCells is one tiny cell per benchmark: set-up uses them to generate
// all 12 programs before anything is timed.
func tinyCells() []service.SimRequest {
	var out []service.SimRequest
	for _, b := range workload.Names() {
		out = append(out, service.SimRequest{Benchmark: b, Config: service.ConfigSpec{Sched: "base"}, MaxInsts: tinyInsts})
	}
	return out
}

// matrixRequest is the k-th cold matrix of a sweep: all 12 benchmarks
// under the five schedulers. The seed picks each configuration's issue
// queue size (31 or 32 entries) and the MOP wakeup style, variations
// small enough to keep the work the same size; the budget moves by one
// instruction per matrix, so no matrix repeats a fingerprint.
func matrixRequest(seed uint64, k int, base int64) service.MatrixRequest {
	r := rng(seed, streamSweep+uint64(k)<<8)
	cfgs := make(map[string]service.ConfigSpec, len(scheds))
	for _, s := range scheds {
		spec := service.ConfigSpec{Sched: s, IQ: intp(31 + r.IntN(2))}
		if s == "mop" {
			spec.Wakeup = []string{"2src", "wired-or"}[r.IntN(2)]
		}
		cfgs[s] = spec
	}
	off := int64(rng(seed, streamBudget).IntN(97))
	return service.MatrixRequest{Configs: cfgs, MaxInsts: base + off + int64(k)}
}

// freshCells yields serve's fresh cells. Each round visits all 60
// benchmark x scheduler pairs once, in a seed-shuffled order, so every
// prefix of the stream holds a balanced mix; the budget grows by one
// instruction per round, so a fingerprint is never repeated while the
// work per cell stays near-constant. Cells of one round share a budget,
// which lets the correctness gate compare checksums across schedulers.
type freshCells struct {
	r     *rand.Rand
	base  int64
	round int
	order []service.SimRequest
}

func newFreshCells(seed uint64) *freshCells {
	return &freshCells{r: rng(seed, streamFresh), base: freshInsts + int64(rng(seed, streamBudget).IntN(89))}
}

func (f *freshCells) next() service.SimRequest {
	if len(f.order) == 0 {
		insts := f.base + int64(f.round)
		f.round++
		for _, b := range workload.Names() {
			for _, s := range scheds {
				f.order = append(f.order, service.SimRequest{Benchmark: b, Config: service.ConfigSpec{Sched: s}, MaxInsts: insts})
			}
		}
		f.r.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	}
	req := f.order[0]
	f.order = f.order[1:]
	return req
}

// serveReq is one request of the serve mix.
type serveReq struct {
	req service.SimRequest
	hit bool // re-requests a hot-set cell, so it must be a cache hit
}

// missEvery spaces serve's fresh cells: request i is fresh when
// i%missEvery equals a seed-chosen phase, so exactly one request in ten
// is fresh and fresh cells arrive evenly, never in bursts that would
// queue behind each other.
const missEvery = 10

// serveRound is how many serve requests carry one round of fresh cells:
// every benchmark x scheduler pair once.
func serveRound() int { return missEvery * len(workload.Names()) * len(scheds) }

// serveRequests returns the first n requests of a seed's serve mix: the
// fresh cells at their fixed slots, and a seed-chosen hot-set cell in
// every other slot.
func serveRequests(seed uint64, n int) []serveReq {
	hot := hotSet(seed)
	fresh := newFreshCells(seed)
	r := rng(seed, streamServe)
	phase := r.IntN(missEvery)
	out := make([]serveReq, n)
	for i := range out {
		if i%missEvery == phase {
			out[i] = serveReq{req: fresh.next()}
		} else {
			out[i] = serveReq{req: hot[r.IntN(len(hot))], hit: true}
		}
	}
	return out
}

// gapWindows are the window sizes the gap workload cycles through.
var gapWindows = []int{20, 21, 22, 23, 24, 25, 26, 27, 28}

// gapRound is how many gap requests make one round: one per window size.
var gapRound = len(gapWindows)

// gapRequest is the i-th gap request of a seed: all 12 benchmarks with a
// spec that no other index of the same seed repeats. Each round uses
// every window size once, with a stride offset and window count fixed
// per round, so any whole number of rounds is the same work for every
// seed. The seed shuffles the order within each round and moves the
// search-node budget by a few nodes, which changes every fingerprint but
// not the work; past 39 rounds the budget moves by one per 39 rounds.
func gapRequest(seed uint64, i int) service.GapRequest {
	round, pos := i/gapRound, i%gapRound
	order := append([]int(nil), gapWindows...)
	r := rng(seed, streamGap+uint64(round)<<8)
	r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	w := order[pos]
	return service.GapRequest{
		Config:     service.ConfigSpec{Sched: "base"},
		Window:     w,
		Stride:     w + round%13 - 6,
		MaxWindows: 1 + round/13%3,
		NodeBudget: optsched.DefaultNodeBudget + int64(rng(seed, streamGap).IntN(97)) + int64(round/39)*100,
	}
}
