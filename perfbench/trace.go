package main

import "time"

// span is one timed call into a layer. Spans of one benchmark operation
// share Op; Parent indexes the span that was open when this one began
// (-1 for none).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one pass; the benchmark writes them out
// when it ends. A nil *tracer is the untraced pass: every method is a
// no-op, so timed code calls it unconditionally.
type tracer struct {
	t0     time.Time
	op     int64
	spans  []span
	open   []int32
	paused bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp names the operation later spans belong to.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// pause stops (true) or resumes (false) recording, so that warm-up and
// drain work outside the timed phase leaves no spans.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused = p
	}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int32 {
	if t == nil || t.paused {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// durations returns the duration of every span named name, in units of
// unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// childTime returns, for every span named name, the time its child spans
// named in children cover, in units of unit. Children of one span never
// overlap: the benchmark is single-threaded where it traces.
func (t *tracer) childTime(name string, children []string, unit time.Duration) []float64 {
	idx := make(map[int32]int)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			idx[int32(i)] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range t.spans {
		if s.Parent < 0 || !contains(children, s.Name) {
			continue
		}
		if k, ok := idx[s.Parent]; ok {
			out[k] += float64(s.End-s.Start) / float64(unit)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
