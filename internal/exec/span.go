package exec

import (
	"time"

	"nodb/internal/qtrace"
)

// Span-wrapping operators attribute per-operator time and row/batch counts
// to a qtrace.Span. The planner inserts them ONLY when the query context
// carries a profile, so the disabled path runs the exact unwrapped
// operator chain — the ≤1% overhead gate depends on that.
//
// The wrappers preserve the type-assertion-driven fast paths the planner
// and Drain rely on: the batch wrapper is inserted below BatchRows (so
// Drain's *BatchRows special case still fires), and the dual wrapper
// (scans, hash joins) implements both Operator and BatchOperator plus
// RowBudgeter forwarding so AsBatch and LIMIT pushdown see through it.

// SpanRow wraps a row operator.
type SpanRow struct {
	child Operator
	sp    *qtrace.Span
}

// NewSpanRow wraps child so each Open/Next is timed into sp.
func NewSpanRow(sp *qtrace.Span, child Operator) *SpanRow {
	return &SpanRow{child: child, sp: sp}
}

// Open opens the child, attributing the time (scans lock and decide their
// access method in Open).
func (s *SpanRow) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.sp.Observe(time.Since(start), 0, 0)
	return err
}

// Next pulls the child, attributing time and rows.
func (s *SpanRow) Next() (Row, error) {
	start := time.Now()
	r, err := s.child.Next()
	if err != nil {
		s.sp.Observe(time.Since(start), 0, 0)
		return nil, err
	}
	s.sp.Observe(time.Since(start), 1, 0)
	return r, nil
}

// Close closes the child.
func (s *SpanRow) Close() error { return s.child.Close() }

// Columns returns the child schema.
func (s *SpanRow) Columns() []Col { return s.child.Columns() }

// SpanBatch wraps a batch operator. ctr, when valid, is bumped once per
// produced batch on the shared profile — the planner uses it to split
// compiled-kernel batches from generic vectorized batches.
type SpanBatch struct {
	child BatchOperator
	sp    *qtrace.Span
	p     *qtrace.Profile
	ctr   qtrace.Counter
	hasC  bool
}

// NewSpanBatch wraps child so each Open/NextBatch is timed into sp.
func NewSpanBatch(sp *qtrace.Span, child BatchOperator) *SpanBatch {
	return &SpanBatch{child: child, sp: sp}
}

// CountBatches also bumps ctr on p once per produced batch.
func (s *SpanBatch) CountBatches(p *qtrace.Profile, ctr qtrace.Counter) *SpanBatch {
	s.p, s.ctr, s.hasC = p, ctr, true
	return s
}

// Open opens the child, attributing the time.
func (s *SpanBatch) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.sp.Observe(time.Since(start), 0, 0)
	return err
}

// NextBatch pulls the child, attributing time, live rows, and batches.
func (s *SpanBatch) NextBatch() (*Batch, error) {
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
func (s *SpanBatch) Close() error { return s.child.Close() }

// Columns returns the child schema.
func (s *SpanBatch) Columns() []Col { return s.child.Columns() }

// SetRowBudget forwards LIMIT pushdown to a budget-capable child.
func (s *SpanBatch) SetRowBudget(n int64) {
	if b, ok := s.child.(RowBudgeter); ok {
		b.SetRowBudget(n)
	}
}

// DualOperator is one operator serving both executors: the scan-leaf
// contract restated (format.ScanOperator without the import cycle), which
// HashJoin meets too.
type DualOperator interface {
	Operator
	BatchOperator
}

// SpanDual wraps a dual-interface operator (a scan leaf or a hash join),
// serving both interfaces itself so AsBatch and row consumers both see
// through it and profiled plans run the same operators as unprofiled ones.
type SpanDual struct {
	child DualOperator
	sp    *qtrace.Span
	p     *qtrace.Profile
	ctr   qtrace.Counter
	hasC  bool
}

// NewSpanDual wraps child. If the child can annotate its own span
// (GuardedScan reports its access-method decision, HashJoin its build and
// probe sizes), it is handed sp.
func NewSpanDual(sp *qtrace.Span, child DualOperator) *SpanDual {
	if a, ok := child.(qtrace.SpanSetter); ok {
		a.SetTraceSpan(sp)
	}
	return &SpanDual{child: child, sp: sp}
}

// CountBatches also bumps ctr on p once per batch pulled through NextBatch
// (the planner counts the batches a scan narrows with a compiled conjunct
// as kernel batches).
func (s *SpanDual) CountBatches(p *qtrace.Profile, ctr qtrace.Counter) {
	s.p, s.ctr, s.hasC = p, ctr, true
}

// Open opens the child, attributing its time (a scan's lock wait and
// access-method decision, a join's build) to the span.
func (s *SpanDual) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.sp.Observe(time.Since(start), 0, 0)
	return err
}

// Next pulls one row from the child, attributing time and rows.
func (s *SpanDual) Next() (Row, error) {
	start := time.Now()
	r, err := s.child.Next()
	if err != nil {
		s.sp.Observe(time.Since(start), 0, 0)
		return nil, err
	}
	s.sp.Observe(time.Since(start), 1, 0)
	return r, nil
}

// NextBatch pulls one batch from the child, attributing time and rows.
func (s *SpanDual) NextBatch() (*Batch, error) {
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
func (s *SpanDual) Close() error { return s.child.Close() }

// Columns returns the child schema.
func (s *SpanDual) Columns() []Col { return s.child.Columns() }

// SetRowBudget forwards LIMIT pushdown to a budget-capable child (scans;
// a join takes no budget, so under one this is a no-op).
func (s *SpanDual) SetRowBudget(n int64) {
	if b, ok := s.child.(RowBudgeter); ok {
		b.SetRowBudget(n)
	}
}
