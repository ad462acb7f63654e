package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark observed from outside the engine: an
// API boundary (open, query, drain, close, checkpoint, http) of one
// operation. Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root of its operation
	Op     int32  `json:"op"`     // spans of one operation share this id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out when the run ends. A
// nil *tracer is the "tracing off" state: every method is a no-op on it, so
// the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it that its child spans cover. Children of one parent
// do not overlap here (one goroutine runs an operation), so coverage is the
// sum of the children's durations clipped to the parent.
func (t *tracer) selfTimes() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > s.Start {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.End <= s.Start {
			continue
		}
		self := s.End - s.Start - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// write dumps the spans as JSON, ordered by start time.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	spans := append([]span(nil), t.spans...) // ids index t.spans; sort a copy
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
