package main

import (
	"strings"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans rebuilt from a flow's own stage log (core.FlowResult.Stages)
// carry only a duration: Derived is set and Start is zero.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a job's root span
	Job     int     `json:"job"`
	Name    string  `json:"name"` // "<layer>.<call>"
	Start   float64 `json:"start_s,omitempty"`
	Dur     float64 `json:"dur_s"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer records the spans of one job in memory. A nil tracer records
// nothing, so the untraced jobs run the same code with no bookkeeping
// beyond the clock reads the job's own timings need.
type tracer struct {
	job   int
	t0    time.Time
	spans []span
	open  []int // stack of span indices still running
}

// call runs fn inside a span named name and returns its wall time.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Now()
	idx := -1
	if t != nil {
		idx = t.add(name, -1)
		t.spans[idx].Start = start.Sub(t.t0).Seconds()
		t.open = append(t.open, idx)
	}
	fn()
	d := time.Since(start)
	if t != nil {
		t.spans[idx].Dur = d.Seconds()
		t.open = t.open[:len(t.open)-1]
	}
	return d
}

// derived records a completed child of span parent (of the innermost
// open span when parent is -1) from a duration the program reported.
func (t *tracer) derived(parent int, name string, d time.Duration) int {
	if t == nil {
		return -1
	}
	idx := t.add(name, parent)
	t.spans[idx].Dur = d.Seconds()
	t.spans[idx].Derived = true
	return idx
}

// add appends a span under parent, or under the innermost open span
// when parent is -1.
func (t *tracer) add(name string, parent int) int {
	p := parent
	if p < 0 && len(t.open) > 0 {
		p = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: p, Job: t.job, Name: name})
	return len(t.spans) - 1
}

// last returns the index of the most recent span named name, or -1.
func (t *tracer) last(name string) int {
	if t == nil {
		return -1
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return i
		}
	}
	return -1
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// breakdown turns one job's spans into per-layer self times and the
// job's unaccounted time. A span's self time is its duration minus
// the durations of its children; children of one span never overlap,
// because the benchmark and the program's flows call them in sequence.
// The job's root span is "job": its self time is time spent between
// the layer calls, reported as unaccounted rather than hidden.
func breakdown(spans []span) (self map[string]float64, unaccounted float64, durs map[string]float64) {
	childSum := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.Dur
		}
	}
	self = map[string]float64{}
	durs = map[string]float64{}
	for i, s := range spans {
		own := s.Dur - childSum[i]
		durs[s.Name] += s.Dur
		if s.Name == "job" {
			unaccounted += own
			continue
		}
		self[layerOf(s.Name)] += own
	}
	return self, unaccounted, durs
}
