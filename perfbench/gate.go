package main

import (
	"fmt"
	"sync"

	"macroop/internal/core"
	"macroop/internal/service"
)

// gate is the correctness check over every operation a run makes. An
// operation that fails, is refused or returns a wrong answer counts as
// failed; the first few failures are kept, each naming its cell.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	refusals  int // operations that got no answer at all
	reasons   []string
	// byBudget maps benchmark@budget to the first checksum seen for it
	// and the scheduler that produced it: architectural state does not
	// depend on the scheduler, so every scheduler must agree.
	byBudget map[string][2]string
	// misses maps a cell fingerprint to the executed result that a later
	// cache hit must reproduce.
	misses map[string]cellRef
}

// cellRef is a copy of an executed cell's result. It is a copy because
// the service's *core.Result may keep far more memory reachable than the
// fields the checks read, and the benchmark must not add to the live
// heap it reports.
type cellRef struct {
	Bench, Checksum   string
	Cycles, Committed int64
	CheckedCommits    int64
	Result            core.Result
}

func newGate() *gate {
	return &gate{byBudget: make(map[string][2]string), misses: make(map[string]cellRef)}
}

const keptReasons = 10

func (g *gate) failLocked(format string, args ...any) {
	g.failed++
	if len(g.reasons) < keptReasons {
		g.reasons = append(g.reasons, fmt.Sprintf(format, args...))
	}
}

// refused records an operation that got no result.
func (g *gate) refused(what string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.refusals++
	g.failLocked("%s: %v", what, err)
}

// cell checks one cell result of budget insts. wantHit says whether the
// request must have been served from the cache (a hot-set re-request) or
// must have executed (a fresh cell); nil accepts either.
func (g *gate) cell(cr *service.CellResult, insts int64, wantHit *bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	name := fmt.Sprintf("cell %s/%s@%d", cr.Bench, cr.Config, insts)
	switch {
	case cr.Error != "":
		g.failLocked("%s: %s (%s)", name, cr.Error, cr.ErrorKind)
		return false
	case cr.CheckedCommits < insts || cr.Committed < insts:
		g.failLocked("%s: checker covered %d of %d commits (committed %d)", name, cr.CheckedCommits, insts, cr.Committed)
		return false
	case wantHit != nil && cr.Cached != *wantHit:
		g.failLocked("%s: cached=%v, want %v", name, cr.Cached, *wantHit)
		return false
	}
	key := fmt.Sprintf("%s@%d", cr.Bench, insts)
	if first, ok := g.byBudget[key]; !ok {
		g.byBudget[key] = [2]string{cr.Checksum, cr.Config}
	} else if first[0] != cr.Checksum {
		g.failLocked("%s: checksum %s differs from %s under %s", name, cr.Checksum, first[0], first[1])
		return false
	}
	if miss, ok := g.misses[cr.Cell]; !ok {
		if !cr.Cached {
			ref := cellRef{Bench: cr.Bench, Checksum: cr.Checksum, Cycles: cr.Cycles, Committed: cr.Committed, CheckedCommits: cr.CheckedCommits}
			if cr.Result != nil {
				ref.Result = *cr.Result
			}
			g.misses[cr.Cell] = ref
		}
	} else if cr.Checksum != miss.Checksum || cr.Cycles != miss.Cycles || cr.Committed != miss.Committed {
		g.failLocked("%s: hit returned checksum %s, %d cycles, %d commits; the miss gave %s, %d, %d",
			name, cr.Checksum, cr.Cycles, cr.Committed, miss.Checksum, miss.Cycles, miss.Committed)
		return false
	}
	return true
}

// gap checks one gap report: the oracle must never be beaten by a
// heuristic or emit an invalid schedule, and it must cover every
// benchmark with the requested windows.
func (g *gate) gap(req service.GapRequest, resp *service.GapResponse) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	name := fmt.Sprintf("gap window=%d stride=%d max=%d", req.Window, req.Stride, req.MaxWindows)
	switch {
	case resp.Report == nil:
		g.failLocked("%s: no report", name)
		return false
	case resp.Report.Violations() > 0:
		g.failLocked("%s: %d admissibility violations", name, resp.Report.Violations())
		return false
	case resp.Cached || resp.Shared:
		g.failLocked("%s: served from cache, want a fresh run", name)
		return false
	}
	for _, b := range resp.Report.Benches {
		if b.Windows == 0 || b.OptCycles < b.BoundCycles {
			g.failLocked("%s: %s has %d windows, %d cycles under bound %d", name, b.Bench, b.Windows, b.OptCycles, b.BoundCycles)
			return false
		}
	}
	return true
}

// fail records a failure found outside the request path, such as a
// repeat of a cell that did not reproduce its cycles.
func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.failLocked(format, args...)
}

// check records an operation that passed a check made outside the
// request path.
func (g *gate) check() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
}
