package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"macroop/internal/service"
)

// env is one running service under test: the in-process Service with
// `workers` workers, its HTTP API on a loopback port, and a client
// limited to `conns` connections.
type env struct {
	svc     *service.Service
	workers int
	srv     *http.Server
	url     string
	client  *http.Client
	journal string
	conns   int
	serveWG sync.WaitGroup
}

// procs is the parallelism the benchmark allows the service: GOMAXPROCS,
// the worker pool and the client's connections are each at most nproc.
func procs() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// workersFor is the worker pool a kind of traffic gets. Sweep cells run
// one at a time, on one worker: the garbage collector and the runtime
// then have a CPU of their own instead of contending with a second
// worker, and the host readings between jobs (hostref.go) track the one
// worker's speed. On the 2-vCPU VM this halved the spread of kips across
// seeds. Serve and gap get every CPU.
func workersFor(kind string) int {
	if kind == "sweep" {
		return 1
	}
	return procs()
}

// startEnv starts a service with the given workers and a fresh journal
// at journalPath, and serves its HTTP API on 127.0.0.1.
func startEnv(journalPath string, workers int) (*env, error) {
	svc, err := service.New(service.Options{Workers: workers, JournalPath: journalPath})
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		svc:     svc,
		workers: workers,
		srv:     &http.Server{Handler: svc.Handler()},
		url:     "http://" + ln.Addr().String(),
		journal: journalPath,
		conns:   procs(),
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.conns,
		MaxIdleConnsPerHost: e.conns,
		DisableCompression:  true,
	}}
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		e.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return e, nil
}

// close stops the HTTP server and drains the service; it returns once
// both have stopped.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	e.serveWG.Wait()
	e.client.CloseIdleConnections()
	if cerr := e.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// post sends a JSON request and decodes a 200 response into out.
func (e *env) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// setup starts a service and brings it to the state every workload's
// first timed request expects: the journal opened, all 12 programs
// generated through one tiny cell each, and the serve hot set executed,
// so that its re-requests are cache hits. Every result passes the gate.
// It returns the running service, with the workers that kind of traffic
// gets, and how long that took.
func setup(dir string, rep int, seed uint64, kind string, g *gate) (*env, time.Duration, error) {
	t0 := time.Now()
	e, err := startEnv(filepath.Join(dir, fmt.Sprintf("journal-%d", rep)), workersFor(kind))
	if err != nil {
		return nil, 0, err
	}
	no := false
	for _, batch := range [][]service.SimRequest{tinyCells(), hotSet(seed)} {
		e.simulateAll(batch, g, &no)
	}
	return e, time.Since(t0), nil
}

// simulateAll runs the requests in-process, one after another, and
// passes each result to the gate. One at a time, set-up takes the same
// time however the host schedules two workers: run two at once, the
// median set-up read about 0.38 s in some processes and 0.52 s in
// others.
func (e *env) simulateAll(reqs []service.SimRequest, g *gate, wantHit *bool) {
	for _, req := range reqs {
		cr, err := e.svc.Simulate(context.Background(), req)
		if cr == nil {
			g.refused(fmt.Sprintf("cell %s/%s@%d", req.Benchmark, req.Config.Sched, req.MaxInsts), err)
			continue
		}
		g.cell(cr, req.MaxInsts, wantHit)
	}
}
