package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans are recorded only on the benchmark's side of
// each call into the program; what happens inside a call is attached as
// derived child intervals computed from the counters the program
// exports (their placement inside the parent is nominal, their length
// is measured). A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one interval. Width is the parallelism the interval spans: a
// parallel exploration of wall time d on two workers offers 2d
// worker-seconds, and its children are measured in worker-seconds too.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // 0 for a root
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	Dur     time.Duration `json:"dur_ns"`
	Width   float64       `json:"width"`
	Derived bool          `json:"derived,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0), Width: 1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Dur = time.Since(t.t0) - s.Start
}

func (t *tracer) add(name string, start, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: start, Dur: dur, Width: 1})
	return len(t.spans)
}

// setWidth declares the parallelism of an open or closed span.
func (t *tracer) setWidth(id int, w float64) {
	if t != nil && id != 0 {
		t.spans[id-1].Width = w
	}
}

// derive attaches a child of measured length d (worker-seconds when the
// parent is wider than one) to parent and returns its ID.
func (t *tracer) derive(parent int, name string, d time.Duration) int {
	if t == nil || parent == 0 {
		return 0
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: p.Start, Dur: d, Width: 1, Derived: true})
	return len(t.spans)
}

// write stores the spans as a Chrome trace_event file (loadable in
// Perfetto or chrome://tracing), one track per root span.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	root := make([]int, len(t.spans)+1)
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		root[s.ID] = s.ID
		if s.Parent != 0 {
			root[s.ID] = root[s.Parent]
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: root[s.ID],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "width": s.Width, "derived": s.Derived},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
