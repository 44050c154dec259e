package main

import (
	"sync"
	"time"
)

// openLoop sends requests on a fixed schedule whatever the system does:
// request i is due at start + i/rate. One generator goroutine releases
// each request at its due time to a fixed set of senders, each owning
// one connection. The generator never waits for the system: a request
// that finds every sender busy waits in the hand-off queue, and that
// wait is part of its latency.
type openLoop struct {
	rate    float64 // requests per second
	senders int     // concurrent connections
}

// sample is one request's timing.
type sample struct {
	fromDue time.Duration // done - due time
	late    time.Duration // release - due time: how late the generator woke up
}

// latency is the request's latency from its release by the generator.
// It holds every wait the system imposed, queueing behind busy senders
// included, but not the generator's own wake-up lateness: on a small VM
// a sleeping goroutine wakes a median 0.6 ms and at p90 several ms late
// even in an idle process, which would swamp a 0.4 ms cache hit with
// host noise. The lateness is reported on its own.
func (s sample) latency() time.Duration { return s.fromDue - s.late }

// due is the scheduled send offset of request i.
func (o openLoop) due(i int) time.Duration {
	return time.Duration(float64(i) / o.rate * float64(time.Second))
}

// run issues n requests, calling send(i) for request i on one of the
// senders, and returns once every request has finished. The hand-off
// queue holds all n requests, so the generator never blocks on a busy
// sender and its lateness measures only its own scheduling delay.
func (o openLoop) run(n int, send func(i int)) []sample {
	out := make([]sample, n)
	type handoff struct {
		i   int
		due time.Time
	}
	queue := make(chan handoff, n)
	var wg sync.WaitGroup
	for s := 0; s < o.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range queue {
				send(h.i)
				out[h.i].fromDue = time.Since(h.due)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(o.due(i))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(due)
		queue <- handoff{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	return out
}
