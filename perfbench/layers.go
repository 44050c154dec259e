package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/journal"
	"macroop/internal/optsched"
	"macroop/internal/program"
	"macroop/internal/service"
	"macroop/internal/workload"
)

// The traced run re-issues, for a fixed sample of the cells and windows
// its workload used, the direct calls into each layer, each inside a
// span. Every repeat runs a fresh core over the identical segment, and
// the benchmark asserts that cycles and commits agree across repeats and
// with the service's answer for the same cell before it reports a ratio.

// layerCell is one sampled cell and the service's result for it.
type layerCell struct {
	req service.SimRequest
	ref *cellRef // nil if the workload never executed it
}

// layerSample is the fixed work one traced run replays.
type layerSample struct {
	cells   []layerCell
	gaps    []service.GapRequest
	gapRefs map[int]map[string]int64 // gap request index -> bench -> nodes seen in the workload
}

// Repeats per sampled cell. The first unchecked and the first checked
// leg warm the process; only later legs are timed or counted.
const (
	uncheckedLegs = 3
	checkedLegs   = 2
	newCoreReps   = 10
	hitReps       = 1000
	journalReps   = 1000
	replayReps    = 5
	genReps       = 3
)

// layers measures every per-layer metric over the sample. It records
// its calls as spans under tr and counts same-work violations in g.
func layers(dir string, s layerSample, tr *tracer, g *gate) (map[string]float64, error) {
	out := make(map[string]float64)
	progs := make(map[string]*program.Program)

	// workload: generate every benchmark; sum of per-benchmark medians.
	root, endRoot := tr.begin("layers", 0, "layers")
	defer endRoot()
	var genMS float64
	for _, b := range workload.Names() {
		prof, err := workload.ByName(b)
		if err != nil {
			return nil, err
		}
		var ts []float64
		for r := 0; r < genReps; r++ {
			var p *program.Program
			d := tr.time("workload.Generate", root, b, func() { p, err = workload.Generate(prof) })
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", b, err)
			}
			progs[b] = p
			ts = append(ts, ms(d))
		}
		genMS += median(ts)
	}
	out["workload.gen_ms"] = genMS

	if err := coreLayers(s.cells, progs, root, tr, g, out); err != nil {
		return nil, err
	}
	if err := serviceLayers(dir, s.cells, root, tr, g, out); err != nil {
		return nil, err
	}
	if err := journalLayer(dir, s.cells, root, tr, out); err != nil {
		return nil, err
	}
	if err := optschedLayer(s, progs, root, tr, g, out); err != nil {
		return nil, err
	}
	return out, nil
}

// allocs measures f's heap allocations (count and bytes). Nothing else
// runs while the layers are measured, so the counts are exact.
func allocs(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// coreLayers times the functional executor, core set-up, the unchecked
// and stage-accounted cycle loop, and the checked run on every sampled
// cell.
func coreLayers(cells []layerCell, progs map[string]*program.Program, root int, tr *tracer, g *gate, out map[string]float64) error {
	var (
		funcNS, funcInsts               float64
		newMS                           float64
		coreD, checkD, stageD           time.Duration
		coreAllocs, checkAllocs, checkB uint64
		cycles, committed               int64
		grants, replays, formed         int64
		entries, ops                    int64
		stages                          [5]float64 // commit, sched, execute, insert, fetch, weighted by leg time
	)
	funcDone := make(map[string]bool)
	for ci, c := range cells {
		req := fmt.Sprintf("cell-%d", ci)
		name := fmt.Sprintf("cell %s/%s@%d", c.req.Benchmark, c.req.Config.Sched, c.req.MaxInsts)
		m, err := c.req.Config.Machine()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p := progs[c.req.Benchmark]
		insts := c.req.MaxInsts

		if !funcDone[c.req.Benchmark] {
			funcDone[c.req.Benchmark] = true
			n, d, err := stepFunctional(p, max(insts, 200_000), tr, root, req)
			if err != nil {
				return fmt.Errorf("%s: functional: %w", name, err)
			}
			funcNS += float64(d.Nanoseconds())
			funcInsts += float64(n)
		}

		var ts []float64
		for r := 0; r < newCoreReps; r++ {
			d := tr.time("core.New", root, req, func() { _, err = core.New(m, p) })
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ts = append(ts, ms(d))
		}
		newMS += median(ts)

		var first *core.Result
		same := func(leg string, r *core.Result) {
			if first == nil {
				first = r
				return
			}
			if r.Cycles != first.Cycles || r.Committed != first.Committed {
				g.fail("%s: %s leg ran %d cycles / %d commits, the first leg %d / %d", name, leg, r.Cycles, r.Committed, first.Cycles, first.Committed)
				return
			}
			g.check()
		}
		var legD time.Duration
		for leg := 0; leg < uncheckedLegs; leg++ {
			res, d, a, _, err := runCore(m, p, insts, false, tr, root, req, "core.Run")
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			same("unchecked", res)
			if leg > 0 {
				legD += d
			}
			if leg == 1 {
				coreAllocs += a
			}
		}
		coreD += legD / (uncheckedLegs - 1)
		res, d, _, bd, err := runCore(m, p, insts, true, tr, root, req, "core.Run+stages")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		same("stage-accounted", res)
		stageD += d
		for i, f := range []float64{bd.Commit, bd.Sched, bd.Execute, bd.Insert, bd.Fetch} {
			stages[i] += f * float64(d)
		}
		for leg := 0; leg < checkedLegs; leg++ {
			var cres *core.Result
			var sum checker.Summary
			var d time.Duration
			a, b := allocs(func() {
				d = tr.time("checker.CheckedRun", root, req, func() { cres, sum, err = checker.CheckedRun(m, p, insts, insts) })
			})
			if err != nil {
				return fmt.Errorf("%s: checked run: %w", name, err)
			}
			same("checked", cres)
			if c.ref != nil && (fmt.Sprintf("%016x", sum.Checksum) != c.ref.Checksum || cres.Cycles != c.ref.Cycles) {
				g.fail("%s: direct checked run gives checksum %016x / %d cycles, the service gave %s / %d",
					name, sum.Checksum, cres.Cycles, c.ref.Checksum, c.ref.Cycles)
			}
			if leg == checkedLegs-1 {
				checkD += d
				checkAllocs += a
				checkB += b
			}
		}
		cycles += first.Cycles
		committed += first.Committed
		grants += first.SchedStats.Grants
		replays += first.SchedStats.Replays
		formed += first.MOPsFormed
		entries += first.SchedStats.EntriesInserted
		ops += first.SchedStats.OpsInserted
	}
	n := float64(len(cells))
	out["functional.ns_per_inst"] = funcNS / funcInsts
	out["core.ns_per_inst"] = float64(coreD.Nanoseconds()) / float64(committed)
	out["core.newcore_ms"] = newMS / n
	out["core.allocs_per_kinst"] = float64(coreAllocs) / (float64(committed) / 1e3)
	out["core.cycles"] = float64(cycles)
	out["core.committed"] = float64(committed)
	for i, k := range []string{"commit", "sched", "execute", "insert", "fetch"} {
		out["core.stage."+k+"_share"] = stages[i] / float64(stageD)
	}
	out["sched.grants"] = float64(grants)
	out["sched.replays"] = float64(replays)
	out["mop.formed"] = float64(formed)
	out["mop.insert_reduction"] = 1 - float64(entries)/float64(ops)
	out["checker.overhead_pct"] = 100 * (float64(checkD)/float64(coreD) - 1)
	out["checker.allocs_per_kinst"] = float64(checkAllocs) / (float64(committed) / 1e3)
	out["checker.bytes_per_inst"] = float64(checkB) / float64(committed)
	return nil
}

// runCore runs a fresh core over the cell's segment, optionally with
// stage accounting on, and returns the result, its duration, its heap
// allocations and the stage split.
func runCore(m config.Machine, p *program.Program, insts int64, stages bool, tr *tracer, root int, req, span string) (*core.Result, time.Duration, uint64, core.StageBreakdown, error) {
	c, err := core.New(m, p)
	if err != nil {
		return nil, 0, 0, core.StageBreakdown{}, err
	}
	c.SetStageAccounting(stages)
	var res *core.Result
	var d time.Duration
	a, _ := allocs(func() { d = tr.time(span, root, req, func() { res, err = c.Run(insts) }) })
	if err != nil {
		return nil, 0, 0, core.StageBreakdown{}, err
	}
	return res, d, a, c.StageBreakdown(), nil
}

// stepFunctional runs the reference executor for up to n instructions.
func stepFunctional(p *program.Program, n int64, tr *tracer, root int, req string) (int64, time.Duration, error) {
	ex := functional.NewExecutor(p)
	var d functional.DynInst
	var done int64
	var err error
	took := tr.time("functional.Step", root, req, func() {
		for ; done < n && !ex.Halted(); done++ {
			if err = ex.Step(&d); err != nil {
				return
			}
		}
	})
	return done, took, err
}

// serviceLayers runs the sampled cells through a fresh in-process
// service: each once as a miss and once as a hit, then hitReps hits
// in-process and over HTTP on the first cell.
func serviceLayers(dir string, cells []layerCell, root int, tr *tracer, g *gate, out map[string]float64) error {
	e, err := startEnv(filepath.Join(dir, "layers-journal"), procs())
	if err != nil {
		return err
	}
	miss, hit := false, true
	for ci, c := range cells {
		for _, want := range []*bool{&miss, &hit} {
			var cr *service.CellResult
			tr.time("service.Simulate", root, fmt.Sprintf("cell-%d", ci), func() { cr, err = e.svc.Simulate(context.Background(), c.req) })
			if cr == nil {
				g.refused(fmt.Sprintf("cell %s/%s@%d", c.req.Benchmark, c.req.Config.Sched, c.req.MaxInsts), err)
				continue
			}
			g.cell(cr, c.req.MaxInsts, want)
		}
	}
	first := cells[0].req
	var inproc, overHTTP []float64
	for i := 0; i < hitReps; i++ {
		d := tr.time("service.Simulate", root, "hit", func() { _, err = e.svc.Simulate(context.Background(), first) })
		if err != nil {
			g.refused("in-process hit", err)
		}
		inproc = append(inproc, ms(d))
	}
	for i := 0; i < hitReps; i++ {
		var cr service.CellResult
		d := tr.time("http.simulate", root, "hit", func() { err = e.post("/v1/simulate", first, &cr) })
		if err != nil {
			g.refused("HTTP hit", err)
		}
		overHTTP = append(overHTTP, ms(d))
	}
	hits, misses, _ := e.svc.CacheStats()
	out["service.hit_us"] = 1e3 * median(inproc)
	out["http.hit_overhead_us"] = 1e3 * (median(overHTTP) - median(inproc))
	out["service.executions"] = float64(e.svc.Executions())
	out["service.hit_ratio"] = float64(hits) / float64(hits+misses)
	if err := e.close(); err != nil {
		return err
	}
	recs, err := journal.Load(e.journal)
	if err != nil {
		return err
	}
	out["journal.appends"] = float64(len(recs))
	return nil
}

// journalLayer appends journalReps cellres-sized records to a temporary
// journal (each Append fsyncs), then times reopening it, which replays
// every record.
func journalLayer(dir string, cells []layerCell, root int, tr *tracer, out map[string]float64) error {
	val, err := cellRecord(cells)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "append-journal")
	j, err := journal.Open(path)
	if err != nil {
		return err
	}
	var ts []float64
	for i := 0; i < journalReps; i++ {
		d := tr.time("journal.Append", root, "journal", func() { err = j.Append(service.KeyCell+strconv.Itoa(i), val) })
		if err != nil {
			j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
		ts = append(ts, ms(d))
	}
	if err := j.Close(); err != nil {
		return err
	}
	p50, _ := percentile(ts, 50)
	p99, _ := percentile(ts, 99)
	out["journal.append_ms_p50"] = p50.Value
	out["journal.append_ms_p99"] = p99.Value
	var opens []float64
	for i := 0; i < replayReps; i++ {
		var j *journal.Journal
		d := tr.time("journal.Open", root, "journal", func() { j, err = journal.Open(path) })
		if err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
		j.Close()
		opens = append(opens, ms(d))
	}
	out["journal.replay_ms"] = median(opens)
	return nil
}

// cellRecord is the journal value the service writes for the first
// sampled cell that has a result.
func cellRecord(cells []layerCell) ([]byte, error) {
	for _, c := range cells {
		if c.ref == nil {
			continue
		}
		sum, err := strconv.ParseUint(c.ref.Checksum, 16, 64)
		if err != nil {
			return nil, err
		}
		w, err := service.WireFromRecord(&service.CachedResult{Bench: c.ref.Bench, Result: &c.ref.Result, Checksum: sum, Commits: c.ref.CheckedCommits})
		if err != nil {
			return nil, err
		}
		return json.Marshal(w)
	}
	return nil, fmt.Errorf("no sampled cell has a service result to size journal records by")
}

// optschedLayer replays the sampled gap requests benchmark by benchmark:
// window extraction, the four heuristics per window and the exact solve
// per window, as RunGap does them.
func optschedLayer(s layerSample, progs map[string]*program.Program, root int, tr *tracer, g *gate, out map[string]float64) error {
	var extract, heur, solve []float64
	var nodes int64
	var optimal, windows int
	var solveD time.Duration
	for gi, req := range s.gaps {
		m, err := req.Config.Machine()
		if err != nil {
			return err
		}
		spec := optsched.GapSpec{Window: req.Window, Stride: req.Stride, MaxWindows: req.MaxWindows, NodeBudget: req.NodeBudget}.WithDefaults()
		res := optsched.ResourcesFrom(m)
		solver := optsched.Solver{NodeBudget: spec.NodeBudget}
		for _, b := range workload.Names() {
			id := fmt.Sprintf("gap-%d/%s", gi, b)
			var wins []optsched.Window
			d := tr.time("optsched.Extract", root, id, func() {
				wins = optsched.Extract(progs[b], m, optsched.ExtractSpec{Window: spec.Window, Stride: spec.Stride, MaxWindows: spec.MaxWindows})
			})
			extract = append(extract, ms(d))
			var benchNodes int64
			for wi := range wins {
				w := &wins[wi]
				best := optsched.Schedule{Cycles: math.MaxInt}
				d := tr.time("optsched.RunHeuristic", root, id, func() {
					for _, h := range optsched.Heuristics() {
						if sch := optsched.RunHeuristic(w, res, h); sch.Cycles < best.Cycles {
							best = sch
						}
					}
				})
				heur = append(heur, ms(d))
				var o optsched.Outcome
				d = tr.time("optsched.Solve", root, id, func() { o, err = solver.Solve(context.Background(), w, res, best) })
				if err != nil {
					return fmt.Errorf("%s: solve: %w", id, err)
				}
				solveD += d
				solve = append(solve, ms(d))
				benchNodes += o.Nodes
				windows++
				if o.Optimal {
					optimal++
				}
			}
			nodes += benchNodes
			if ref, ok := s.gapRefs[gi][b]; ok {
				if ref != benchNodes {
					g.fail("%s: direct solve expanded %d nodes, the service's report %d", id, benchNodes, ref)
				} else {
					g.check()
				}
			}
		}
	}
	p50, _ := percentile(solve, 50)
	p99, _ := percentile(solve, 99)
	out["optsched.extract_ms"] = median(extract)
	out["optsched.heuristic_ms"] = median(heur)
	out["optsched.solve_ms_p50"] = p50.Value
	out["optsched.solve_ms_p99"] = p99.Value
	out["optsched.nodes"] = float64(nodes)
	out["optsched.nodes_per_s"] = float64(nodes) / solveD.Seconds()
	out["optsched.optimal_share"] = float64(optimal) / float64(windows)
	return nil
}

// exactCounts are the per-layer metrics that must repeat bit for bit for
// one workload and seed on one build.
var exactCounts = []string{
	"core.cycles", "core.committed",
	"sched.grants", "sched.replays", "mop.formed", "mop.insert_reduction",
	"service.executions", "service.hit_ratio", "journal.appends",
	"optsched.nodes", "optsched.optimal_share",
}

// allocCounts are recorded beside the exact counts but compared within
// allocTolerance: Go seeds map hashing per process, and how a map's
// tables grow depends on the seed, so a map-heavy path allocates a few
// objects or bytes more or fewer from one process to the next (up to
// about 0.1% seen at HEAD).
var allocCounts = []string{"core.allocs_per_kinst", "checker.allocs_per_kinst", "checker.bytes_per_inst"}

const allocTolerance = 0.01

// checkCounts writes the exact counts of this workload and seed to
// path, or, when a run of the same build already wrote them, compares
// and names every count that moved.
func checkCounts(path string, metrics map[string]float64, g *gate) error {
	counts := make(map[string]float64)
	for _, k := range append(exactCounts, allocCounts...) {
		counts[k] = metrics[k]
	}
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		for _, k := range exactCounts {
			if prev[k] != counts[k] {
				g.fail("exact count %s is %v, an earlier run of this build recorded %v", k, counts[k], prev[k])
			} else {
				g.check()
			}
		}
		for _, k := range allocCounts {
			if math.Abs(counts[k]-prev[k]) > allocTolerance*prev[k] {
				g.fail("allocation count %s is %v, an earlier run of this build recorded %v", k, counts[k], prev[k])
			} else {
				g.check()
			}
		}
		return nil
	}
	data, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
