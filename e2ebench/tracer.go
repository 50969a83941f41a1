package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, made from this package. Spans of one
// operation share Op; Parent is the ID of the span that caused it (0 for an
// operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"` // filled in by write
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// coverage is the share of span id's duration that its children cover.
func (t *tracer) coverage(id int) float64 {
	t.mu.Lock()
	root := t.spans[id-1]
	t.mu.Unlock()
	d := root.End - root.Start
	if d <= 0 {
		return 1
	}
	return float64(covered(t.children(id))) / float64(d)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, end int64
	for _, s := range spans {
		start := max(s.Start, end)
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// write fills in every span's self time (its duration minus the part of it
// its children cover) and saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.End - s.Start - covered(kids[s.ID])
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
