package exec

// Batch-at-a-time execution. A Batch carries up to ~BatchSize rows in
// column-major layout plus a selection vector. Access methods produce
// batches natively (in-situ scan, cache scan, parallel scan, heap scan),
// and every operator consumes and produces them, amortizing per-tuple
// interface dispatch across the batch.

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

// Batch is a column-major group of rows flowing between operators.
// Cols[j][i] is the value of column j at position i; N is the number of
// physical positions, and Sel — when non-nil — lists the live positions
// in ascending order (nil means all N positions are live). Producers may
// reuse a batch between NextBatch calls; consumers that buffer values must
// copy them out first.
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

// Filter drops rows failing the predicate by narrowing the selection
// vector — no values move.
type Filter struct {
	child  Operator
	pred   expr.Expr
	selBuf []int
}

// NewFilter wraps child with a vectorized predicate.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{child: child, pred: pred}
}

// Open opens the child.
func (f *Filter) Open() error { return f.child.Open() }

// NextBatch pulls child batches until one has surviving rows.
func (f *Filter) NextBatch() (*Batch, error) {
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
func (f *Filter) Close() error { return f.child.Close() }

// Columns passes through the child schema.
func (f *Filter) Columns() []Col { return f.child.Columns() }

// Project computes output expressions column-at-a-time via
// expr.EvalBatch, so a projection costs one expression-tree dispatch per
// column per batch instead of per row.
type Project struct {
	child   Operator
	exprs   []expr.Expr
	cols    []Col
	out     *Batch
	scratch [][]datum.Datum // per-expression owned storage (non-ColRef)
}

// NewProject wraps child with projection expressions and schema.
func NewProject(child Operator, exprs []expr.Expr, cols []Col) *Project {
	if len(exprs) != len(cols) {
		panic(fmt.Sprintf("exec: %d exprs but %d cols", len(exprs), len(cols)))
	}
	return &Project{child: child, exprs: exprs, cols: cols}
}

// Open opens the child.
func (p *Project) Open() error { return p.child.Open() }

// NextBatch evaluates every projection over the child batch (output batch
// reused between calls; it shares the child's selection vector). A bare
// column reference aliases the child's column outright — both batches are
// valid until the next NextBatch call, so no copy is needed.
func (p *Project) NextBatch() (*Batch, error) {
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
func (p *Project) Close() error { return p.child.Close() }

// Columns returns the projected schema.
func (p *Project) Columns() []Col { return p.cols }

// Limit stops after n live rows (n < 0 means no limit), truncating
// the final batch's selection.
type Limit struct {
	child Operator
	n     int64
	seen  int64
	sel   []int
}

// NewLimit wraps child with a row limit.
func NewLimit(child Operator, n int64) *Limit {
	return &Limit{child: child, n: n}
}

// Open opens the child and resets the counter.
func (l *Limit) Open() error { l.seen = 0; return l.child.Open() }

// NextBatch forwards batches, truncating the one that crosses the limit.
func (l *Limit) NextBatch() (*Batch, error) {
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
func (l *Limit) Close() error { return l.child.Close() }

// Columns passes through the child schema.
func (l *Limit) Columns() []Col { return l.child.Columns() }
