package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Req    string `json:"req,omitempty"`    // request the span serves; spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// *tracer records nothing, so untraced legs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id plus the function that closes it
// and returns its duration.
func (t *tracer) begin(name string, parent int, req string) (int, func() time.Duration) {
	start := time.Now()
	if t == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func() time.Duration {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
		return end.Sub(start)
	}
}

// time runs f inside a span and returns f's duration.
func (t *tracer) time(name string, parent int, req string, f func()) time.Duration {
	_, end := t.begin(name, parent, req)
	f()
	return end()
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
