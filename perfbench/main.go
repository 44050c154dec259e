// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload (sweep, serve or gap) through the public APIs of the
// simulation service, in-process and over loopback HTTP, checks every
// answer, and prints its metrics; the last line of standard output is
// one JSON object with the verdict and the metrics. With -trace 1 it
// instead reports per-layer metrics from spans around the benchmark's
// own calls into each layer. See README.md for the workloads and
// metrics; perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"macroop/internal/service"
	"macroop/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow start-up does not move it.
const setupReps = 5

// Probe sizes: fixed work that measures, after the workload's own
// measured phase, the kinds of traffic the workload does not drive (see
// README.md).
const (
	sweepProbeMatrices = 1
	serveProbeRequests = 1200
	gapProbeRounds     = 24
)

func main() {
	wl := flag.String("workload", "", "workload: sweep, serve or gap")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for journals, spans and count records")
	flag.Parse()
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed uint64, seconds time.Duration, traced bool, out string) error {
	switch wl {
	case "sweep", "serve", "gap":
	default:
		return fmt.Errorf("unknown workload %q (want sweep, serve or gap)", wl)
	}
	if seconds <= 0 {
		return fmt.Errorf("non-positive -seconds")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	g := newGate()
	var metrics map[string]metric
	if traced {
		metrics, err = tracedRun(wl, seed, seconds, dir, out, g)
	} else {
		metrics, err = untracedRun(wl, seed, seconds, dir, g)
	}
	if err != nil {
		return err
	}
	return report(metrics, g)
}

// report prints every metric as a line, then the JSON verdict line; a
// failed correctness check names its cells on standard error and makes
// the exit code non-zero.
func report(metrics map[string]metric, g *gate) error {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, r := range g.reasons {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", r)
		}
		return fmt.Errorf("%d of %d operations failed or were incorrect", g.failed, g.attempted)
	}
	return nil
}

// setupRefRuns is how many kernel runs read the host's speed between
// two set-ups (hostref.go).
const setupRefRuns = 5

// setupMedian sets up reps times, keeps the last service running and
// returns it with the median set-up time at reference host speed.
func setupMedian(dir string, reps int, seed uint64, kind string, g *gate) (*env, float64, error) {
	var ts, refTS []float64
	var e *env
	ref := newHostRef(setupRefRuns, 1)
	for r := 0; r < reps; r++ {
		if e != nil {
			if err := closeAndCollect(e); err != nil {
				return nil, 0, err
			}
		}
		var took time.Duration
		var err error
		e, took, err = setup(dir, r, seed, kind, g)
		if err != nil {
			return nil, 0, err
		}
		ts = append(ts, took.Seconds())
		refTS = append(refTS, took.Seconds()/ref.done())
	}
	fmt.Printf("# setup: median %.4f s wall of %d, host slowdown %.3f\n", median(ts), reps, ref.median())
	return e, median(refTS), nil
}

// closeAndCollect stops a service and collects its heap, so that the
// next phase starts from a collected heap rather than from whenever the
// garbage collector next runs: a stopped service leaves hundreds of MB
// (the result cache keeps every simulated core reachable), and a
// collection in the middle of a phase moved its timings.
func closeAndCollect(e *env) error {
	err := e.close()
	runtime.GC()
	return err
}

// sweepMetrics, serveMetrics and gapMetrics turn a phase's stats into
// the end-to-end metrics of its kind of traffic. kips, windows_per_s and
// report_p50_ms are reported at reference host speed (hostref.go);
// hit_p50_ms is wall-clock.
func sweepMetrics(st sweepStats, m map[string]metric) {
	m["kips"] = metric{st.refKips(), "kinst/s"}
	fmt.Printf("# sweep: %d matrices, %d cells, %.3f s, %.2f kips wall, host slowdown %.3f\n",
		st.matrices, len(st.cellMS), st.wall.Seconds(), st.kips(), st.ref.median())
}

func serveMetrics(st serveStats, m map[string]metric) {
	m["hit_p50_ms"] = metric{median(st.hitMS), "ms"}
	p95, _ := percentile(st.missMS, 95)
	fmt.Printf("# hit_p50_ms: median of %d samples; fresh cells: median %.3f ms, p%.4g %.3f ms of %d samples\n",
		len(st.hitMS), median(st.missMS), p95.Pct, p95.Value, p95.N)
	m["slo_share"] = metric{float64(st.withinSLO) / float64(st.sent), "fraction"}
	fmt.Printf("# serve: %d sent, %d refused, pool busy %.3f, generator late p50 %.3f p99 %.3f ms\n",
		st.sent, st.refused, st.busyShare(), median(st.lateMS), latenessP99(st))
}

func latenessP99(st serveStats) float64 {
	t, _ := percentile(st.lateMS, 99)
	return t.Value
}

func gapMetrics(st gapStats, m map[string]metric) {
	m["windows_per_s"] = metric{median(st.refRates), "1/s"}
	fmt.Printf("# gap: %d reports, %d windows, %.3f s; windows_per_s is the median over rounds, %.2f wall, host slowdown %.3f\n",
		st.reports, st.windows, st.wall.Seconds(), st.windowsPerSec(), st.ref.median())
	p50, _ := percentile(st.refReportMS, 50)
	m["report_p50_ms"] = metric{p50.Value, "ms"}
	fmt.Printf("# report_p50_ms: p50 of %d samples, %.4f ms wall\n", p50.N, median(st.reportMS))
}

// untracedRun measures the end-to-end metrics: set-up, the workload's
// measured phase and the live heap after it. Then, each on a service of
// its own set up afresh (untimed), short fixed probes of the traffic
// kinds the workload does not drive, so that no probe inherits another
// phase's heap or cache.
func untracedRun(wl string, seed uint64, seconds time.Duration, dir string, g *gate) (map[string]metric, error) {
	e, setupS, err := setupMedian(dir, setupReps, seed, wl, g)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{"setup_s": {setupS, "s"}}
	n := phaseSize(wl, seconds)
	phases := map[string]func(e *env, n int){
		"sweep": func(e *env, n int) { sweepMetrics(e.sweepPhase(seed, sweepInsts, 0, n, nil, g), m) },
		"serve": func(e *env, n int) { serveMetrics(e.servePhase(seed, 0, n, nil, g), m) },
		"gap":   func(e *env, n int) { gapMetrics(e.gapPhase(seed, 0, n, nil, g), m) },
	}
	phases[wl](e, n)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["live_heap_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
	if err := closeAndCollect(e); err != nil {
		return nil, err
	}
	for i, p := range []struct {
		kind string
		n    int
	}{{"sweep", sweepProbeMatrices}, {"serve", serveProbeRequests}, {"gap", gapProbeRounds * gapRound}} {
		if p.kind == wl {
			continue
		}
		pe, _, err := setup(dir, setupReps+i, seed, p.kind, g)
		if err != nil {
			return nil, err
		}
		phases[p.kind](pe, p.n)
		if err := closeAndCollect(pe); err != nil {
			return nil, err
		}
	}
	m["success_share"] = metric{1 - float64(g.failed)/float64(max(g.attempted, 1)), "fraction"}
	fmt.Printf("# error_rate %g: %d of %d operations failed or were incorrect\n",
		float64(g.failed)/float64(max(g.attempted, 1)), g.failed, g.attempted)
	for _, want := range endToEnd {
		if got, ok := m[want.name]; !ok || got.Unit != want.unit {
			return nil, fmt.Errorf("end-to-end metric %s (%s) was not measured", want.name, want.unit)
		}
	}
	return m, nil
}

// Phase sizes per second of -seconds, calibrated at HEAD on a 2-vCPU
// host: a cold 50k-instruction matrix takes about 4.5 s there on one
// worker, a gap report with its host readings about 35 ms. The work is
// fixed by -seconds alone, so a faster commit runs the same requests in
// less time.
const (
	sweepMatricesPerSecond = 0.2
	gapReportsPerSecond    = 27
)

// phaseSize is how many operations the workload's measured phase issues:
// matrices for sweep, requests for serve, reports for gap.
func phaseSize(wl string, seconds time.Duration) int {
	switch wl {
	case "sweep":
		return max(1, int(seconds.Seconds()*sweepMatricesPerSecond))
	case "serve": // whole rounds of fresh cells, so that every seed executes the same cells
		return max(1, int(serveRate*seconds.Seconds())/serveRound()) * serveRound()
	default: // whole rounds, so that every seed does the same work
		return max(1, int(gapReportsPerSecond*seconds.Seconds())/gapRound) * gapRound
	}
}

// traceChunks splits the measured phase into chunks that alternate
// untraced and traced, so that the two halves see the same host and the
// same kind of work: single matrices (at least four), quarters of the
// serve requests, or whole gap rounds.
func traceChunks(wl string, seconds time.Duration) (size, count int) {
	n := phaseSize(wl, seconds)
	switch wl {
	case "sweep":
		return 1, max(4, n)
	case "serve":
		return n / 4, 4
	default:
		return gapRound, n / gapRound
	}
}

// tracedRun reports the per-layer metrics: the measured phase in
// alternating untraced and traced chunks (their difference is the
// tracing overhead), then the layer replay over a fixed sample of the
// cells and windows the workload used, then the exact-count self-check.
func tracedRun(wl string, seed uint64, seconds time.Duration, dir, out string, g *gate) (map[string]metric, error) {
	e, _, err := setupMedian(dir, 1, seed, wl, g)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var head [2][]float64 // headline metric per chunk: untraced, traced
	var sweeps [2]sweepStats
	var serves [2]serveStats
	var gaps [2]gapStats
	n, chunks := traceChunks(wl, seconds)
	for i := 0; i < chunks; i++ {
		t := i % 2
		var legTr *tracer
		if t == 1 {
			legTr = tr
		}
		switch wl {
		case "sweep":
			st := e.sweepPhase(seed, sweepInsts, i*n, n, legTr, g)
			head[t] = append(head[t], st.kips())
			sweeps[t] = mergeSweep(sweeps[t], st)
		case "serve":
			st := e.servePhase(seed, i*n, n, legTr, g)
			p50, _ := percentile(st.hitMS, 50)
			head[t] = append(head[t], p50.Value)
			serves[t] = mergeServe(serves[t], st)
		case "gap":
			st := e.gapPhase(seed, i*n, n, legTr, g)
			head[t] = append(head[t], st.windowsPerSec())
			gaps[t] = mergeGap(gaps[t], st)
		}
	}
	if err := closeAndCollect(e); err != nil {
		return nil, err
	}

	// The per-layer sample and the service-level metrics of the traced legs.
	sample := layerSample{gapRefs: make(map[int]map[string]int64)}
	for i := 0; i < gapRound; i++ {
		sample.gaps = append(sample.gaps, gapRequest(seed, i))
	}
	lm := make(map[string]float64)
	untraced, traced := median(head[0]), median(head[1])
	if wl == "serve" { // hit_p50_ms: lower is better
		lm["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	} else { // kips, windows_per_s: higher is better
		lm["trace.overhead_pct"] = 100 * (untraced/traced - 1)
	}
	switch wl {
	case "sweep":
		all := mergeSweep(sweeps[0], sweeps[1])
		req := matrixRequest(seed, 0, sweepInsts)
		for i := 0; i < 6; i++ {
			sched := scheds[i%len(scheds)]
			sample.cells = append(sample.cells, layerCell{req: service.SimRequest{
				Benchmark: workload.Names()[2*i], Config: req.Configs[sched], MaxInsts: req.MaxInsts}})
		}
		st := sweeps[1]
		lm["service.queue_wait_ms"] = median(st.waitMS)
		lm["service.exec_ms"] = median(st.cellMS)
		lm["service.pool_busy_share"] = sum(st.cellMS) / ms(st.wall) / float64(workersFor("sweep"))
		lm["loadgen.late_p99_ms"], lm["loadgen.sent"] = 0, float64(len(all.cellMS))
		lm["http.hit_p90_ms"], lm["http.hit_p99_ms"], lm["http.miss_p50_ms"], lm["http.miss_p95_ms"], lm["http.report_p90_ms"] = 0, 0, 0, 0, 0
	case "serve":
		for _, r := range serveRequests(seed, n) {
			if !r.hit && len(sample.cells) < 12 {
				sample.cells = append(sample.cells, layerCell{req: r.req})
			}
		}
		st := serves[1]
		lm["service.queue_wait_ms"] = median(st.queueMS)
		lm["service.exec_ms"] = median(st.execMS)
		lm["service.pool_busy_share"] = st.busyShare()
		all := mergeServe(serves[0], serves[1])
		lm["loadgen.late_p99_ms"] = latenessP99(all)
		lm["loadgen.sent"] = float64(all.sent)
		for _, p := range []float64{90, 99} {
			t, _ := percentile(all.hitMS, p)
			lm[fmt.Sprintf("http.hit_p%g_ms", p)] = t.Value
		}
		p95, _ := percentile(all.missMS, 95)
		lm["http.miss_p50_ms"], lm["http.miss_p95_ms"], lm["http.report_p90_ms"] = median(all.missMS), p95.Value, 0
	case "gap":
		hot := hotSet(seed)
		for i := range workload.Names() {
			sample.cells = append(sample.cells, layerCell{req: hot[i*len(scheds)+i%len(scheds)]})
		}
		all := mergeGap(gaps[0], gaps[1])
		sample.gapRefs = all.nodes
		st := gaps[1]
		lm["service.queue_wait_ms"] = median(st.queueMS)
		lm["service.exec_ms"] = median(st.execMS)
		lm["service.pool_busy_share"] = sum(st.execMS) / ms(st.wall)
		lm["loadgen.late_p99_ms"], lm["loadgen.sent"] = 0, float64(all.reports)
		p90, _ := percentile(all.reportMS, 90)
		lm["http.hit_p90_ms"], lm["http.hit_p99_ms"], lm["http.miss_p50_ms"], lm["http.miss_p95_ms"], lm["http.report_p90_ms"] = 0, 0, 0, 0, p90.Value
	}
	lm["service.rejected"] = float64(g.refusals)
	for i, c := range sample.cells {
		fp, err := service.CellSpec{Bench: c.req.Benchmark, Spec: c.req.Config, Insts: c.req.MaxInsts}.Fingerprint()
		if err != nil {
			return nil, err
		}
		if ref, ok := g.misses[fp]; ok {
			sample.cells[i].ref = &ref
		}
	}

	layer, err := layers(dir, sample, tr, g)
	if err != nil {
		return nil, err
	}
	for k, v := range layer {
		lm[k] = v
	}
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	if err := checkCounts(filepath.Join(out, fmt.Sprintf("counts-%s-seed%d-%s.json", wl, seed, build)), lm, g); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))); err != nil {
		return nil, err
	}
	m := make(map[string]metric, len(lm))
	for _, l := range perLayer {
		v, ok := lm[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		m[l.name] = metric{v, l.unit}
	}
	return m, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mergeSweep(a, b sweepStats) sweepStats {
	a.matrices += b.matrices
	a.committed += b.committed
	a.wall += b.wall
	a.refWall += b.refWall
	a.cellMS = append(a.cellMS, b.cellMS...)
	a.waitMS = append(a.waitMS, b.waitMS...)
	return a
}

func mergeServe(a, b serveStats) serveStats {
	a.sent += b.sent
	a.refused += b.refused
	a.lateMS = append(a.lateMS, b.lateMS...)
	a.hitMS = append(a.hitMS, b.hitMS...)
	a.missMS = append(a.missMS, b.missMS...)
	a.queueMS = append(a.queueMS, b.queueMS...)
	a.execMS = append(a.execMS, b.execMS...)
	a.busyMS += b.busyMS
	a.wall += b.wall
	return a
}

func mergeGap(a, b gapStats) gapStats {
	a.reports += b.reports
	a.windows += b.windows
	a.wall += b.wall
	a.reportMS = append(a.reportMS, b.reportMS...)
	a.queueMS = append(a.queueMS, b.queueMS...)
	a.execMS = append(a.execMS, b.execMS...)
	if a.nodes == nil {
		a.nodes = make(map[int]map[string]int64)
	}
	for k, v := range b.nodes {
		a.nodes[k] = v
	}
	return a
}

// buildID identifies the running binary, so that exact counts are only
// ever compared between runs of one build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// endToEnd lists the end-to-end metrics an untraced run reports, with
// units; BENCHMARK.json lists the same.
var endToEnd = []struct{ name, unit string }{
	{"kips", "kinst/s"},
	{"hit_p50_ms", "ms"},
	{"slo_share", "fraction"},
	{"windows_per_s", "1/s"},
	{"report_p50_ms", "ms"},
	{"success_share", "fraction"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run reports, with units;
// BENCHMARK.json lists the same.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ms", "ms"},
	{"functional.ns_per_inst", "ns"},
	{"core.ns_per_inst", "ns"},
	{"core.newcore_ms", "ms"},
	{"core.allocs_per_kinst", "count"},
	{"core.cycles", "count"},
	{"core.committed", "count"},
	{"core.stage.sched_share", "fraction"},
	{"core.stage.insert_share", "fraction"},
	{"core.stage.execute_share", "fraction"},
	{"core.stage.fetch_share", "fraction"},
	{"core.stage.commit_share", "fraction"},
	{"sched.grants", "count"},
	{"sched.replays", "count"},
	{"mop.formed", "count"},
	{"mop.insert_reduction", "fraction"},
	{"checker.overhead_pct", "%"},
	{"checker.allocs_per_kinst", "count"},
	{"checker.bytes_per_inst", "B"},
	{"service.hit_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.hit_ratio", "fraction"},
	{"service.executions", "count"},
	{"service.rejected", "count"},
	{"service.pool_busy_share", "fraction"},
	{"http.hit_overhead_us", "us"},
	{"http.hit_p90_ms", "ms"},
	{"http.hit_p99_ms", "ms"},
	{"http.miss_p50_ms", "ms"},
	{"http.miss_p95_ms", "ms"},
	{"http.report_p90_ms", "ms"},
	{"journal.append_ms_p50", "ms"},
	{"journal.append_ms_p99", "ms"},
	{"journal.appends", "count"},
	{"journal.replay_ms", "ms"},
	{"optsched.extract_ms", "ms"},
	{"optsched.heuristic_ms", "ms"},
	{"optsched.solve_ms_p50", "ms"},
	{"optsched.solve_ms_p99", "ms"},
	{"optsched.nodes", "count"},
	{"optsched.nodes_per_s", "1/s"},
	{"optsched.optimal_share", "fraction"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead_pct", "%"},
}
