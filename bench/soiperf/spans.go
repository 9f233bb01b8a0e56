package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an interval measured elsewhere (for spans whose start is a
// schedule instant, not a call).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// selfTimesMS groups the spans from index `from` on by name and returns, per
// name, each span's self time in milliseconds: its duration minus the part
// of it that its direct children cover. Children may overlap (the ranks of
// one collective run side by side), so the covered part is the union of the
// child intervals, clipped to the parent.
func selfTimesMS(spans []span, from int) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for i := from; i < len(spans); i++ {
		s := spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// maxTraceSpans bounds the trace file; later spans are dropped from the
// file (never from the metrics) and the drop is recorded in it.
const maxTraceSpans = 50000

// writeFile dumps the spans as JSON.
func (t *tracer) writeFile(path, workload string) error {
	kept := t.spans
	if len(kept) > maxTraceSpans {
		kept = kept[:maxTraceSpans]
	}
	doc := struct {
		Workload string `json:"workload"`
		Recorded int    `json:"recorded"`
		Spans    []span `json:"spans"`
	}{workload, len(t.spans), kept}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
