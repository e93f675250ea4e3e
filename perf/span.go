package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer's public API, recorded by the
// benchmark's driver. Spans of one operation share Op; Parent is the span
// that caused this one (-1 at the root). Times are nanoseconds since the
// trace began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer buffers spans in memory; nothing is written until the run ends. A
// nil tracer records nothing, which is how the untraced laps run.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover.
func selfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return spans[ks[i]].Start < spans[ks[j]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums a trace by span name.
type spanTotals struct {
	count       int
	total, self time.Duration
}

func (t *tracer) byName() map[string]spanTotals {
	out := map[string]spanTotals{}
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(self[s.ID])
		out[s.Name] = st
	}
	return out
}

// mean is the average duration of the named span.
func (st spanTotals) mean() time.Duration {
	if st.count == 0 {
		return 0
	}
	return st.total / time.Duration(st.count)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
