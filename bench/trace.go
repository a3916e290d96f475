package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one workload run form a tree through Parent (0 is
// the root). A compile span carries the compiler's own phase durations as
// attributes; they are never turned into child intervals the compiler did
// not report.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     string             `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Tags   map[string]string  `json:"tags,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how the untraced run measures. Only
// the workload's goroutine records spans.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(parent int, op, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.ns(time.Now())})
	return len(t.spans)
}

// finish closes span id with its attributes.
func (t *tracer) finish(id int, attrs map[string]float64, tags map[string]string) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Attrs, s.Tags = t.ns(time.Now()), attrs, tags
}

// record adds a closed span whose interval the caller timed.
func (t *tracer) record(parent int, op, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: t.ns(start), End: t.ns(end), Attrs: attrs})
}

func (t *tracer) snapshot() []span { return append([]span(nil), t.spans...) }

func (t *tracer) write(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
