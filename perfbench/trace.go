package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one client operation
// share an Op id; Parent indexes the span that caused this one in the
// tracer's list (-1 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// part is a child span measured by the caller.
type part struct {
	name       string
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. It records only
// while on is set, so the untraced blocks of a traced run pay nothing
// but the load of that flag.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ops   atomic.Uint64

	mu    sync.Mutex // lock-rank: none leaf lock, held only to append spans
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record stores one operation: a root span from start to end and its
// children, which the caller timed inside that interval.
func (t *tracer) record(name string, start, end time.Time, children ...part) {
	if !t.on.Load() {
		return
	}
	op := t.ops.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	for _, c := range children {
		t.spans = append(t.spans, span{Name: c.name, Op: op, Parent: root,
			Start: c.start.Sub(t.epoch).Nanoseconds(), End: c.end.Sub(t.epoch).Nanoseconds()})
	}
}

// durations returns the duration in ms of every span accepted by keep.
func (t *tracer) durations(keep func(s, parent *span) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		var parent *span
		if s.Parent >= 0 {
			parent = &t.spans[s.Parent]
		}
		if keep(s, parent) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// named keeps the spans called name.
func named(name string) func(s, parent *span) bool {
	return func(s, _ *span) bool { return s.Name == name }
}

// selfTimes sums, in ms per span name, each span's self time: its
// duration minus the time its children cover. Children of one
// operation are timed one after another, so their durations add up
// without overlap.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
