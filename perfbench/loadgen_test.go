package main

import (
	"testing"
	"time"
)

// A stall in the system must show in the latency of every request due
// during it: the requests queued behind it are timed from their due
// time, and from their release, which the generator does on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n     = 40
		rate  = 1000.0 // one request due every millisecond
		stall = 50 * time.Millisecond
	)
	loop := openLoop{rate: rate, senders: 1}
	samples := loop.run(n, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if len(samples) != n {
		t.Fatalf("%d samples, want %d", len(samples), n)
	}
	if samples[0].latency() < stall {
		t.Errorf("request 0 latency %v, want >= %v", samples[0].latency(), stall)
	}
	for i := 1; i < n; i++ {
		// Request i was due i ms after the start and could not be sent
		// before the stall ended at 50 ms.
		want := stall - loop.due(i)
		if samples[i].fromDue < want {
			t.Errorf("request %d latency from due time %v, want >= %v (queued behind the stall)", i, samples[i].fromDue, want)
		}
		if samples[i].latency() < want-samples[i].late {
			t.Errorf("request %d latency from release %v, want >= %v", i, samples[i].latency(), want-samples[i].late)
		}
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	loop := openLoop{rate: 500, senders: 2}
	samples := loop.run(20, func(int) {})
	for i, s := range samples {
		if s.late < 0 {
			t.Errorf("request %d: negative lateness %v", i, s.late)
		}
		if s.latency() < 0 {
			t.Errorf("request %d: latency from due time %v below generator lateness %v", i, s.fromDue, s.late)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	loop := openLoop{rate: 200}
	for i, want := range []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond} {
		if got := loop.due(i); got != want {
			t.Errorf("due(%d) = %v, want %v", i, got, want)
		}
	}
}
