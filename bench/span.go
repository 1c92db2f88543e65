package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the engine itself is not instrumented by this benchmark).
// Spans of one operation share Op; Parent is the ID of the span that
// caused this one, or -1 for the operation's root.  Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends.  A nil tracer
// records nothing, which is how the untraced pass runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-timed span (pure functions timed in a batch,
// or a wait reported by an engine histogram).
func (t *tracer) add(op int64, parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).  A layer's self time is what it spent itself, not
// what it spent waiting for the layers below it.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		cur := s.Start
		for _, ci := range ch {
			lo, hi := spans[ci].Start, spans[ci].End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// durations returns the durations, in ascending order, of every span
// with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	sort.Float64s(out)
	return out
}

// traceFileSpans caps the spans written per trace file; the per-layer
// metrics are computed from every span, the file is for reading.
const traceFileSpans = 50_000

// writeTrace writes the spans of one workload's traced pass to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span, self map[string]time.Duration) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kept := spans
	if len(kept) > traceFileSpans {
		kept = kept[:traceFileSpans]
	}
	selfNs := map[string]int64{}
	for k, v := range self {
		selfNs[k] = v.Nanoseconds()
	}
	doc := struct {
		Workload   string           `json:"workload"`
		TotalSpans int              `json:"total_spans"`
		SelfNs     map[string]int64 `json:"self_ns_by_name"`
		Spans      []span           `json:"spans"`
	}{workload, len(spans), selfNs, kept}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
