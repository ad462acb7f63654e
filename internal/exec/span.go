package exec

import (
	"time"

	"nodb/internal/qtrace"
)

// Span attributes one operator's time and row/batch counts to a
// qtrace.Span. The planner inserts it ONLY when the query context carries
// a profile, so the disabled path runs the exact unwrapped operator chain
// — the ≤1% overhead gate depends on that. It forwards RowBudgeter, so
// LIMIT pushdown sees through it.
type Span struct {
	child Operator
	sp    *qtrace.Span
	p     *qtrace.Profile
	ctr   qtrace.Counter
	hasC  bool
}

// NewSpan wraps child so each Open/NextBatch is timed into sp. A child
// that annotates its own span (a scan reports its access-method decision,
// a hash join its build and probe sizes, a hash aggregation its input and
// groups) is handed sp.
func NewSpan(sp *qtrace.Span, child Operator) *Span {
	if a, ok := child.(qtrace.SpanSetter); ok {
		a.SetTraceSpan(sp)
	}
	return &Span{child: child, sp: sp}
}

// CountBatches also bumps ctr on p once per produced batch — the planner
// uses it to split compiled-kernel batches from row-interpreter ones.
func (s *Span) CountBatches(p *qtrace.Profile, ctr qtrace.Counter) {
	s.p, s.ctr, s.hasC = p, ctr, true
}

// Open opens the child, attributing its time (a scan's lock wait and
// access-method decision, a join's build, an aggregation's input).
func (s *Span) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.sp.Observe(time.Since(start), 0, 0)
	return err
}

// NextBatch pulls the child, attributing time, live rows, and batches.
func (s *Span) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := s.child.NextBatch()
	if err != nil {
		s.sp.Observe(time.Since(start), 0, 0)
		return nil, err
	}
	s.sp.Observe(time.Since(start), int64(b.Live()), 1)
	if s.hasC {
		s.p.Count(s.ctr, 1)
	}
	return b, nil
}

// Close closes the child.
func (s *Span) Close() error { return s.child.Close() }

// Columns returns the child schema.
func (s *Span) Columns() []Col { return s.child.Columns() }

// SetRowBudget forwards LIMIT pushdown to a budget-capable child (scans;
// a join takes no budget, so above one this is a no-op).
func (s *Span) SetRowBudget(n int64) {
	if b, ok := s.child.(RowBudgeter); ok {
		b.SetRowBudget(n)
	}
}
