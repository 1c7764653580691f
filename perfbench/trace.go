package main

// The benchmark's own tracer. Every traced call is a span recorded from
// outside the program, around a call into one layer's public function:
// name, start, end, parent span and the id of the input it served.
// Spans stay in memory and are written out when the run ends, with each
// span name's call count and self time (its duration minus the time its
// child spans cover).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one traced call. Times are offsets from the trace origin.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// Tracer records spans; it is safe for concurrent use.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// newTracer preallocates room for capacity spans, so recording does not
// allocate (the write-path allocation count is measured under it).
func newTracer(capacity int) *Tracer {
	return &Tracer{origin: time.Now(), spans: make([]Span, 0, capacity)}
}

// Start opens a span and returns its id (ids start at 1; 0 is "no
// parent").
func (t *Tracer) Start(name string, parent, req int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return now - s.Start
}

// Record adds a finished span with explicit times (offsets from at).
func (t *Tracer) Record(name string, parent, req int, at time.Time, start, end time.Duration) int {
	base := at.Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: base + start, End: base + end})
	return id
}

// LayerStat is one span name's aggregate.
type LayerStat struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// Layers aggregates spans by name: call count, total time and self
// time, largest self time first.
func (t *Tracer) Layers() []LayerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []LayerStat
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, LayerStat{Name: s.Name})
		}
		d := s.End - s.Start
		out[i].Calls++
		out[i].TotalMs += ms(d)
		out[i].SelfMs += ms(d - child[s.ID])
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfMs != out[b].SelfMs {
			return out[a].SelfMs > out[b].SelfMs
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Write saves the spans as JSON lines to <dir>/<stem>.spans.jsonl and
// the layer table to <dir>/<stem>.layers.json.
func (t *Tracer) Write(dir, stem string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.Layers(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".layers.json"), b, 0o644)
}

// printLayers prints the layer table, one line per span name.
func printLayers(ls []LayerStat) {
	fmt.Printf("%-28s %8s %12s %12s\n", "layer", "calls", "self_ms", "total_ms")
	for _, l := range ls {
		fmt.Printf("%-28s %8d %12.3f %12.3f\n", l.Name, l.Calls, l.SelfMs, l.TotalMs)
	}
}
