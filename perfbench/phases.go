package main

import (
	"fmt"
	"time"

	"macroop/internal/experiments"
	"macroop/internal/service"
	"macroop/internal/workload"
)

// Each phase drives one kind of traffic and returns what it measured.
// Every phase does a fixed amount of work, so two commits are always
// compared on identical requests; main.go sizes the workload's own phase
// from -seconds and runs probes of the other kinds at fixed sizes.

// sweepStats is a closed-loop run of cold matrices.
type sweepStats struct {
	matrices  int
	committed int64
	wall      time.Duration
	refWall   time.Duration // wall at reference host speed (hostref.go)
	cellMS    []float64     // per cell: service execution time (CellResult.WallMS)
	waitMS    []float64     // per job: wall x workers - summed cell time, per cell
	ref       *hostRef
}

// kips is the wall-clock rate over the whole phase.
func (s *sweepStats) kips() float64 { return float64(s.committed) / 1e3 / s.wall.Seconds() }

// refKips is the rate at reference host speed.
func (s *sweepStats) refKips() float64 { return float64(s.committed) / 1e3 / s.refWall.Seconds() }

// A matrix goes to the service as one job per benchmark, under all five
// schedulers, one job after another, so that the host's speed is read
// every half second or so, between jobs, rather than every few seconds;
// sweepRefRuns kernel runs make one reading (hostref.go).
const sweepRefRuns = 3

// sweepPhase submits matrices first .. first+count-1 one after another
// through the service's matrix API, each job once its predecessor
// finished.
func (e *env) sweepPhase(seed uint64, base int64, first, count int, tr *tracer, g *gate) sweepStats {
	st := sweepStats{ref: newHostRef(sweepRefRuns, e.workers)}
	for k := first; k < first+count; k++ {
		for _, b := range workload.Names() {
			req := matrixRequest(seed, k, base)
			req.Benchmarks = []string{b}
			id := fmt.Sprintf("matrix-%d/%s", k, b)
			want := len(scheds)
			_, end := tr.begin("service.matrix", 0, id)
			job, err := e.svc.SubmitMatrix(req)
			if err != nil {
				end()
				g.refused(id, err)
				continue
			}
			<-job.Done()
			took := end()
			res := job.Status(true).Results
			if len(res) != want {
				g.fail("%s: %d of %d cells finished", id, len(res), want)
			}
			var busy float64
			for _, cr := range res {
				if g.cell(cr, req.MaxInsts, nil) {
					st.committed += cr.Committed
				}
				st.cellMS = append(st.cellMS, cr.WallMS)
				busy += cr.WallMS
			}
			st.wall += took
			st.refWall += time.Duration(float64(took) / st.ref.done())
			if len(res) > 0 {
				idle := ms(took)*float64(e.workers) - busy
				st.waitMS = append(st.waitMS, idle/float64(len(res)))
			}
		}
		st.matrices++
	}
	return st
}

// Latency limits for slo_share. A hit must come back within a few
// milliseconds; a fresh cell, within a few times the slowest short
// cell's execution time. Both are fixed here so that every commit is
// judged by the same limits.
const (
	hitLimit  = 5 * time.Millisecond
	missLimit = 250 * time.Millisecond
)

// serveRate is serve's fixed offered load. At HEAD it keeps the worker
// pool well under half busy, so latency reflects the request path and
// not queueing behind other requests.
const serveRate = 200.0

// serveStats is an open-loop run of the serve mix.
type serveStats struct {
	sent, withinSLO int
	hitMS, missMS   []float64 // latency from release (sample.latency)
	lateMS          []float64 // generator lateness
	queueMS         []float64 // sender pickup to response, minus server WallMS
	execMS          []float64 // server WallMS of fresh cells
	busyMS          float64   // summed server WallMS: worker-pool busy time
	wall            time.Duration
	refused         int
}

// servePhase sends requests [from, from+n) of the seed's serve mix over
// HTTP at serveRate.
func (e *env) servePhase(seed uint64, from, n int, tr *tracer, g *gate) serveStats {
	reqs := serveRequests(seed, from+n)[from:]
	type outcome struct {
		cr  *service.CellResult
		ok  bool
		dur time.Duration // pickup to response
	}
	outs := make([]outcome, n)
	loop := openLoop{rate: serveRate, senders: e.conns}
	start := time.Now()
	samples := loop.run(n, func(i int) {
		r := reqs[i]
		_, end := tr.begin("http.simulate", 0, fmt.Sprintf("req-%d", from+i))
		var cr service.CellResult
		err := e.post("/v1/simulate", r.req, &cr)
		outs[i].dur = end()
		name := fmt.Sprintf("req %d: cell %s/%s@%d", from+i, r.req.Benchmark, r.req.Config.Sched, r.req.MaxInsts)
		if err != nil {
			g.refused(name, err)
			return
		}
		outs[i].cr, outs[i].ok = &cr, g.cell(&cr, r.req.MaxInsts, &r.hit)
	})
	st := serveStats{sent: n, wall: time.Since(start)}
	for i, s := range samples {
		lat := ms(s.latency())
		st.lateMS = append(st.lateMS, ms(s.late))
		o := outs[i]
		if o.cr == nil {
			st.refused++
			continue
		}
		st.busyMS += o.cr.WallMS
		st.queueMS = append(st.queueMS, ms(o.dur)-o.cr.WallMS)
		limit := missLimit
		if reqs[i].hit {
			st.hitMS = append(st.hitMS, lat)
			limit = hitLimit
		} else {
			st.missMS = append(st.missMS, lat)
			st.execMS = append(st.execMS, o.cr.WallMS)
		}
		if o.ok && s.latency() <= limit {
			st.withinSLO++
		}
	}
	return st
}

// busyShare is the worker pool's busy fraction over the phase.
func (s *serveStats) busyShare() float64 {
	return s.busyMS / 1e3 / s.wall.Seconds() / float64(procs())
}

// gapStats is a closed-loop run of fresh gap reports.
type gapStats struct {
	reports, windows int
	wall             time.Duration
	reportMS         []float64
	queueMS          []float64                // latency - server WallMS
	execMS           []float64                // server WallMS
	nodes            map[int]map[string]int64 // request index -> bench -> search nodes
	roundRates       []float64                // per whole round: windows per second of report latency
	refRates         []float64                // the same at reference host speed (hostref.go)
	refReportMS      []float64                // per report: latency at reference host speed, read around each report
	ref              *hostRef
}

// gapRefRuns is how many kernel runs read the host's speed after each
// report (hostref.go). The report's benchmarks run in parallel, so each
// reading runs the kernel on every CPU at once.
const gapRefRuns = 3

// gapPhase posts gap requests first .. first+count-1 one after another
// over HTTP, each once its predecessor was answered.
func (e *env) gapPhase(seed uint64, first, count int, tr *tracer, g *gate) gapStats {
	st := gapStats{nodes: make(map[int]map[string]int64), ref: newHostRef(gapRefRuns, procs())}
	var roundW, roundMS, roundRefMS float64
	var whole bool
	for i := first; i < first+count; i++ {
		if (i-first)%gapRound == 0 {
			roundW, roundMS, roundRefMS, whole = 0, 0, 0, true
		}
		req := gapRequest(seed, i)
		_, end := tr.begin("http.gap", 0, fmt.Sprintf("gap-%d", i))
		var resp service.GapResponse
		err := e.post("/v1/gap", req, &resp)
		took := end()
		slow := st.ref.done()
		st.wall += took
		if err != nil {
			g.refused(fmt.Sprintf("gap request %d", i), err)
			whole = false
		} else if g.gap(req, &resp) {
			lat, w := ms(took), reportWindows(resp.Report)
			st.reports++
			st.windows += w
			st.reportMS = append(st.reportMS, lat)
			st.execMS = append(st.execMS, resp.WallMS)
			st.queueMS = append(st.queueMS, lat-resp.WallMS)
			st.nodes[i] = make(map[string]int64)
			for _, b := range resp.Report.Benches {
				st.nodes[i][b.Bench] = b.Nodes
			}
			st.refReportMS = append(st.refReportMS, lat/slow)
			roundW += float64(w)
			roundMS += lat
			roundRefMS += lat / slow
		} else {
			whole = false
		}
		if whole && (i-first)%gapRound == gapRound-1 {
			st.roundRates = append(st.roundRates, roundW/(roundMS/1e3))
			st.refRates = append(st.refRates, roundW/(roundRefMS/1e3))
		}
	}
	return st
}

// reportWindows counts the windows a report scheduled.
func reportWindows(rep *experiments.GapReport) int {
	_, total := rep.OptimalWindows()
	return total
}

// windowsPerSec is the median over whole rounds of gapRound consecutive
// reports of each round's windows per second of report latency: every
// seed runs the same rounds, and a burst of host noise moves one round,
// not the result.
func (s *gapStats) windowsPerSec() float64 { return median(s.roundRates) }
