package exec

// Batch-at-a-time execution. A Batch carries up to ~BatchSize rows in
// column-major layout plus a selection vector; BatchOperator is the
// vectorized sibling of the Volcano Operator interface. Access methods
// produce batches natively (in-situ scan, cache scan, parallel scan), the
// hash join consumes and produces them (join.go), and the hot operators —
// Filter, Project, Limit, hash-aggregation input — consume them,
// amortizing per-tuple interface dispatch across the batch. Adapters in
// both directions serve what is still row-only: Sort, sort aggregation,
// hash-aggregation output and heap-scan leaves.

import (
	"fmt"
	"io"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// DefaultBatchSize is how many rows a producer groups into one batch when
// the engine does not override it. 1024 rows keeps a batch of a few
// columns inside the L2 cache while amortizing per-batch overhead to
// noise.
const DefaultBatchSize = 1024

// Batch is a column-major group of rows flowing between batch operators.
// Cols[j][i] is the value of column j at position i; N is the number of
// physical positions, and Sel — when non-nil — lists the live positions
// in ascending order (nil means all N positions are live). Producers may
// reuse a batch between NextBatch calls; consumers that buffer values must
// copy them out first, exactly like the row contract of Operator.Next.
type Batch struct {
	Cols [][]datum.Datum
	Sel  []int
	N    int
}

// NewBatch allocates a batch of the given width whose columns have room
// for capacity rows (length 0; producers append or reslice).
func NewBatch(width, capacity int) *Batch {
	b := &Batch{Cols: make([][]datum.Datum, width)}
	for j := range b.Cols {
		b.Cols[j] = make([]datum.Datum, 0, capacity)
	}
	return b
}

// Reset empties the batch for refilling.
func (b *Batch) Reset() {
	for j := range b.Cols {
		b.Cols[j] = b.Cols[j][:0]
	}
	b.Sel = nil
	b.N = 0
}

// Live returns the number of live rows.
func (b *Batch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Row gathers the k-th live row into dst (len >= width) and returns it.
func (b *Batch) Row(k int, dst Row) Row {
	i := k
	if b.Sel != nil {
		i = b.Sel[k]
	}
	for j := range b.Cols {
		dst[j] = b.Cols[j][i]
	}
	return dst
}

// BatchOperator is the vectorized iterator interface. NextBatch returns
// io.EOF when the stream is exhausted; returned batches are owned by the
// producer and valid until the next call.
type BatchOperator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
	Columns() []Col
}

// RowBudgeter is implemented by batch producers that can stop early once
// the consumer needs at most n more live rows. The planner pushes a bare
// LIMIT down through count-preserving operators (projections) as a row
// budget, so the scan stops at the limit instead of materializing one full
// batch past it. A budget is an upper bound on useful output, never a
// change of results: producers may still deliver complete batches whose
// tail the limit above truncates.
type RowBudgeter interface {
	SetRowBudget(n int64)
}

// BatchRows adapts a BatchOperator into the row Operator interface, for
// row-only consumers (sort, client drains) above a batch pipeline.
type BatchRows struct {
	child BatchOperator
	b     *Batch
	k     int
	buf   Row
}

// NewBatchRows wraps a batch operator as a row operator.
func NewBatchRows(child BatchOperator) *BatchRows {
	return &BatchRows{child: child, buf: make(Row, len(child.Columns()))}
}

// Batch returns the wrapped batch operator (see AsBatch).
func (a *BatchRows) Batch() BatchOperator { return a.child }

// Open opens the child.
func (a *BatchRows) Open() error {
	a.b, a.k = nil, 0
	return a.child.Open()
}

// Next gathers the next live row out of the current batch.
func (a *BatchRows) Next() (Row, error) {
	for a.b == nil || a.k >= a.b.Live() {
		b, err := a.child.NextBatch()
		if err != nil {
			return nil, err
		}
		a.b, a.k = b, 0
	}
	if len(a.buf) < len(a.b.Cols) {
		// Producers may carry more columns than the declared schema (or a
		// nil schema in tests); size the gather buffer from the data.
		a.buf = make(Row, len(a.b.Cols))
	}
	r := a.b.Row(a.k, a.buf)
	a.k++
	return r, nil
}

// Close closes the child.
func (a *BatchRows) Close() error { return a.child.Close() }

// Columns returns the child schema.
func (a *BatchRows) Columns() []Col { return a.child.Columns() }

// RowBatcher adapts a row Operator into the batch interface, so a row-only
// leaf can feed a vectorized pipeline.
type RowBatcher struct {
	child    Operator
	size     int
	b        *Batch
	budget   int64 // max rows to produce in total; -1 = unlimited
	produced int64
}

// NewRowBatcher wraps a row operator, grouping size rows per batch
// (size <= 0 uses DefaultBatchSize).
func NewRowBatcher(child Operator, size int) *RowBatcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &RowBatcher{child: child, size: size, budget: -1}
}

// SetRowBudget implements RowBudgeter: NextBatch stops pulling the child
// once n rows have been produced, so a pushed-down LIMIT does not pay for
// rows past the limit.
func (r *RowBatcher) SetRowBudget(n int64) { r.budget = n }

// Open opens the child.
func (r *RowBatcher) Open() error {
	r.produced = 0
	return r.child.Open()
}

// NextBatch accumulates up to size child rows into a column-major batch,
// never exceeding the remaining row budget.
func (r *RowBatcher) NextBatch() (*Batch, error) {
	if r.b == nil {
		r.b = NewBatch(len(r.child.Columns()), r.size)
	}
	target := r.size
	if r.budget >= 0 {
		rem := r.budget - r.produced
		if rem <= 0 {
			return nil, io.EOF
		}
		if int64(target) > rem {
			target = int(rem)
		}
	}
	b := r.b
	b.Reset()
	for b.N < target {
		row, err := r.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for j := range b.Cols {
			b.Cols[j] = append(b.Cols[j], row[j])
		}
		b.N++
	}
	if b.N == 0 {
		return nil, io.EOF
	}
	r.produced += int64(b.N)
	return b, nil
}

// Close closes the child.
func (r *RowBatcher) Close() error { return r.child.Close() }

// Columns returns the child schema.
func (r *RowBatcher) Columns() []Col { return r.child.Columns() }

// AsBatch extracts the batch-capable view of an operator: either the
// operator implements BatchOperator natively (scans and hash joins do), or
// it is a BatchRows adapter whose inner pipeline can be extended directly.
func AsBatch(op Operator) (BatchOperator, bool) {
	if a, ok := op.(*BatchRows); ok {
		return a.Batch(), true
	}
	if b, ok := op.(BatchOperator); ok {
		return b, true
	}
	return nil, false
}

// BatchFilter drops rows failing the predicate by narrowing the selection
// vector — no values move.
type BatchFilter struct {
	child  BatchOperator
	pred   expr.Expr
	selBuf []int
}

// NewBatchFilter wraps child with a vectorized predicate.
func NewBatchFilter(child BatchOperator, pred expr.Expr) *BatchFilter {
	return &BatchFilter{child: child, pred: pred}
}

// Open opens the child.
func (f *BatchFilter) Open() error { return f.child.Open() }

// NextBatch pulls child batches until one has surviving rows.
func (f *BatchFilter) NextBatch() (*Batch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil {
			return nil, err
		}
		sel, err := expr.FilterBatch(f.pred, b.Cols, b.N, b.Sel, f.selBuf[:0])
		if err != nil {
			return nil, err
		}
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		return b, nil
	}
}

// Close closes the child.
func (f *BatchFilter) Close() error { return f.child.Close() }

// Columns passes through the child schema.
func (f *BatchFilter) Columns() []Col { return f.child.Columns() }

// BatchProject computes output expressions column-at-a-time via
// expr.EvalBatch, so a projection costs one expression-tree dispatch per
// column per batch instead of per row.
type BatchProject struct {
	child   BatchOperator
	exprs   []expr.Expr
	cols    []Col
	out     *Batch
	scratch [][]datum.Datum // per-expression owned storage (non-ColRef)
}

// NewBatchProject wraps child with projection expressions and schema.
func NewBatchProject(child BatchOperator, exprs []expr.Expr, cols []Col) *BatchProject {
	if len(exprs) != len(cols) {
		panic(fmt.Sprintf("exec: %d exprs but %d cols", len(exprs), len(cols)))
	}
	return &BatchProject{child: child, exprs: exprs, cols: cols}
}

// Open opens the child.
func (p *BatchProject) Open() error { return p.child.Open() }

// NextBatch evaluates every projection over the child batch (output batch
// reused between calls; it shares the child's selection vector). A bare
// column reference aliases the child's column outright — both batches are
// valid until the next NextBatch call, so no copy is needed.
func (p *BatchProject) NextBatch() (*Batch, error) {
	b, err := p.child.NextBatch()
	if err != nil {
		return nil, err
	}
	if p.out == nil {
		p.out = &Batch{Cols: make([][]datum.Datum, len(p.exprs))}
		p.scratch = make([][]datum.Datum, len(p.exprs))
	}
	out := p.out
	out.N = b.N
	out.Sel = b.Sel
	for j, e := range p.exprs {
		v, err := evalVec(e, b, &p.scratch[j])
		if err != nil {
			return nil, err
		}
		out.Cols[j] = v
	}
	return out, nil
}

// evalVec produces the value vector of e over batch b: a bare in-range
// column reference aliases the batch column outright (the length guard
// matters — producers may leave columns the query never references
// unfilled), anything else evaluates into *scratch, which is grown and
// reused across calls.
func evalVec(e expr.Expr, b *Batch, scratch *[]datum.Datum) ([]datum.Datum, error) {
	if c, ok := e.(*expr.ColRef); ok && c.Index >= 0 && c.Index < len(b.Cols) && len(b.Cols[c.Index]) >= b.N {
		return b.Cols[c.Index][:b.N], nil
	}
	if cap(*scratch) < b.N {
		*scratch = make([]datum.Datum, b.N)
	}
	*scratch = (*scratch)[:b.N]
	if err := expr.EvalBatch(e, b.Cols, b.N, b.Sel, *scratch); err != nil {
		return nil, err
	}
	return *scratch, nil
}

// Close closes the child.
func (p *BatchProject) Close() error { return p.child.Close() }

// Columns returns the projected schema.
func (p *BatchProject) Columns() []Col { return p.cols }

// BatchLimit stops after n live rows (n < 0 means no limit), truncating
// the final batch's selection.
type BatchLimit struct {
	child BatchOperator
	n     int64
	seen  int64
	sel   []int
}

// NewBatchLimit wraps child with a row limit.
func NewBatchLimit(child BatchOperator, n int64) *BatchLimit {
	return &BatchLimit{child: child, n: n}
}

// Open opens the child and resets the counter.
func (l *BatchLimit) Open() error { l.seen = 0; return l.child.Open() }

// NextBatch forwards batches, truncating the one that crosses the limit.
func (l *BatchLimit) NextBatch() (*Batch, error) {
	if l.n >= 0 && l.seen >= l.n {
		return nil, io.EOF
	}
	b, err := l.child.NextBatch()
	if err != nil {
		return nil, err
	}
	live := int64(b.Live())
	if l.n >= 0 && l.seen+live > l.n {
		keep := int(l.n - l.seen)
		if b.Sel != nil {
			b.Sel = b.Sel[:keep]
		} else {
			// Materialize a prefix selection to avoid touching N, which
			// still describes the physical column length.
			l.sel = l.sel[:0]
			for i := 0; i < keep; i++ {
				l.sel = append(l.sel, i)
			}
			b.Sel = l.sel
		}
		live = int64(keep)
	}
	l.seen += live
	return b, nil
}

// Close closes the child.
func (l *BatchLimit) Close() error { return l.child.Close() }

// Columns passes through the child schema.
func (l *BatchLimit) Columns() []Col { return l.child.Columns() }

// DrainBatches runs a batch operator to completion, returning all live
// rows (copied). It opens and closes the operator.
func DrainBatches(op BatchOperator) ([]Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	width := len(op.Columns())
	var out []Row
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for k := 0; k < b.Live(); k++ {
			out = append(out, b.Row(k, make(Row, width)))
		}
	}
}
