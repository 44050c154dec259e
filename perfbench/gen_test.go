package main

import (
	"reflect"
	"testing"

	"macroop/internal/config"
	"macroop/internal/experiments"
	"macroop/internal/optsched"
	"macroop/internal/service"
)

func TestSeedFixesRequestSequence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 12345} {
		if a, b := serveRequests(seed, 500), serveRequests(seed, 500); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: serve sequence differs between calls", seed)
		}
		for i := 0; i < 30; i++ {
			if a, b := gapRequest(seed, i), gapRequest(seed, i); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d: gap request %d differs between calls", seed, i)
			}
		}
		for k := 0; k < 3; k++ {
			if a, b := matrixRequest(seed, k, sweepInsts), matrixRequest(seed, k, sweepInsts); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d: matrix %d differs between calls", seed, k)
			}
		}
	}
	if reflect.DeepEqual(serveRequests(1, 200), serveRequests(2, 200)) {
		t.Error("seeds 1 and 2 give the same serve sequence")
	}
}

// A prefix of the serve sequence is a prefix of any longer one, so a run
// split into legs sends exactly the requests of an unsplit run.
func TestServeSequencePrefix(t *testing.T) {
	long := serveRequests(3, 1000)
	if short := serveRequests(3, 400); !reflect.DeepEqual(short, long[:400]) {
		t.Error("serveRequests(3, 400) is not a prefix of serveRequests(3, 1000)")
	}
}

func TestServeMix(t *testing.T) {
	reqs := serveRequests(5, 2400)
	fresh := 0
	for _, r := range reqs {
		if !r.hit {
			fresh++
		}
	}
	if fresh != len(reqs)/missEvery {
		t.Errorf("%d fresh requests of %d, want exactly %d", fresh, len(reqs), len(reqs)/missEvery)
	}
}

func fingerprint(t *testing.T, r service.SimRequest) string {
	t.Helper()
	fp, err := service.CellSpec{Bench: r.Benchmark, Spec: r.Config, Insts: r.MaxInsts}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFreshCellsNeverRepeatAFingerprint(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		seen := make(map[string]string)
		add := func(kind string, r service.SimRequest) {
			fp := fingerprint(t, r)
			if prev, ok := seen[fp]; ok {
				t.Fatalf("seed %d: %s cell %+v repeats the fingerprint of a %s cell", seed, kind, r, prev)
			}
			seen[fp] = kind
		}
		for _, r := range hotSet(seed) {
			add("hot", r)
		}
		for _, r := range tinyCells() {
			add("tiny", r)
		}
		fresh := newFreshCells(seed)
		for i := 0; i < 3000; i++ {
			add("fresh", fresh.next())
		}
	}
}

func TestMatricesNeverRepeatAFingerprint(t *testing.T) {
	seen := make(map[string]bool)
	for k := 0; k < 20; k++ {
		req := matrixRequest(4, k, sweepInsts)
		for _, spec := range req.Configs {
			fp := fingerprint(t, service.SimRequest{Benchmark: "gzip", Config: spec, MaxInsts: req.MaxInsts})
			if seen[fp] {
				t.Fatalf("matrix %d repeats a fingerprint", k)
			}
			seen[fp] = true
		}
	}
}

func TestGapRequestsNeverRepeatAndRoundsMatchAcrossSeeds(t *testing.T) {
	m := config.Default()
	seen := make(map[string]int)
	for i := 0; i < 40*gapRound; i++ {
		req := gapRequest(8, i)
		spec := optsched.GapSpec{Window: req.Window, Stride: req.Stride, MaxWindows: req.MaxWindows, NodeBudget: req.NodeBudget}
		fp := experiments.GapFingerprint(nil, m, spec)
		if j, ok := seen[fp]; ok {
			t.Fatalf("gap request %d repeats request %d", i, j)
		}
		seen[fp] = i
	}
	// Every whole round holds the same windows for every seed.
	for round := 0; round < 14; round++ {
		shape := func(seed uint64) map[[3]int]int {
			s := make(map[[3]int]int)
			for pos := 0; pos < gapRound; pos++ {
				r := gapRequest(seed, round*gapRound+pos)
				s[[3]int{r.Window, r.Stride, r.MaxWindows}]++
			}
			return s
		}
		if a, b := shape(1), shape(2); !reflect.DeepEqual(a, b) {
			t.Errorf("round %d: seeds 1 and 2 request different windows: %v vs %v", round, a, b)
		}
	}
}
