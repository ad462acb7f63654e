package qtrace

import (
	"sync/atomic"
	"time"
)

// Span is one node of the operator tree with attributed time and row/batch
// counts. The tree shape is built single-threaded during bind; the timing
// fields are atomics because a scan leaf's detail is annotated from the
// operator goroutine while the inspector may snapshot concurrently.
type Span struct {
	label    string
	detail   atomic.Pointer[string]
	children []*Span

	nanos   atomic.Int64
	rows    atomic.Int64
	batches atomic.Int64
}

// NewSpan creates a span labeled label with the given children (leaf-first
// construction: children exist before their parent).
func NewSpan(label string, children ...*Span) *Span {
	return &Span{label: label, children: children}
}

// SpanSetter is implemented by operators that annotate their own span with
// runtime decisions (a scan's access method is only known at Open time).
// The planner's span wrapper hands the span down through this interface.
type SpanSetter interface {
	SetTraceSpan(*Span)
}

// Label returns the operator label.
func (s *Span) Label() string {
	if s == nil {
		return ""
	}
	return s.label
}

// SetDetail annotates the span (e.g. a scan's access-method decision,
// which is only known at Open time).
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.detail.Store(&d)
}

// Detail returns the span's annotation ("" when none).
func (s *Span) Detail() string {
	if s == nil {
		return ""
	}
	if d := s.detail.Load(); d != nil {
		return *d
	}
	return ""
}

// Observe adds one operator pull: elapsed time plus rows produced. Batch
// operators pass the batch length as rows and nonzero batches.
func (s *Span) Observe(d time.Duration, rows, batches int64) {
	if s == nil {
		return
	}
	if d > 0 {
		s.nanos.Add(int64(d))
	}
	if rows > 0 {
		s.rows.Add(rows)
	}
	if batches > 0 {
		s.batches.Add(batches)
	}
}

// SpanInfo is the immutable snapshot of one span.
type SpanInfo struct {
	Label    string     `json:"label"`
	Detail   string     `json:"detail,omitempty"`
	NS       int64      `json:"ns"`
	Rows     int64      `json:"rows"`
	Batches  int64      `json:"batches,omitempty"`
	Children []SpanInfo `json:"children,omitempty"`
}

func (s *Span) snapshot() SpanInfo {
	info := SpanInfo{
		Label:   s.label,
		NS:      s.nanos.Load(),
		Rows:    s.rows.Load(),
		Batches: s.batches.Load(),
	}
	if d := s.detail.Load(); d != nil {
		info.Detail = *d
	}
	for _, c := range s.children {
		info.Children = append(info.Children, c.snapshot())
	}
	return info
}
