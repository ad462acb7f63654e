package kernel

import (
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
)

// Fused is the compiled tail of a vectorized pipeline: any residual filter
// plus the output projection run in one pass over each child batch,
// replacing the BatchFilter and BatchProject operator hops. Bare column
// references alias the child's vectors outright, value shapes run their
// typed programs and materialize Datums, and anything else (or a batch
// whose values do not carry the program's types) falls back to the generic
// expr.EvalBatch walk per column — so a partially supported projection
// still fuses what it can.
type Fused struct {
	child exec.BatchOperator
	pred  expr.Expr // residual conjunction (already kernelized); nil if none
	outs  []fusedOut
	cols  []exec.Col

	out    *exec.Batch
	selBuf []int
}

// fusedOut is one output column: an alias, or an expression (carrying a
// typed value program when its shape compiled).
type fusedOut struct {
	alias   int // child column to alias, -1 otherwise
	e       expr.Expr
	scratch []datum.Datum
}

// NewFused compiles the projection list against the cache and wraps child.
// pred, when non-nil, is applied before projecting (its survivors narrow
// the selection, exactly like a BatchFilter would).
func NewFused(c *Cache, child exec.BatchOperator, pred expr.Expr, exprs []expr.Expr, cols []exec.Col) *Fused {
	f := &Fused{child: child, pred: pred, cols: cols, outs: make([]fusedOut, len(exprs))}
	for i, e := range exprs {
		f.outs[i] = fusedOut{alias: -1, e: e}
		if cr, ok := e.(*expr.ColRef); ok && cr.Index >= 0 {
			f.outs[i].alias = cr.Index
			continue
		}
		f.outs[i].e = c.Value(e)
	}
	return f
}

// Open opens the child.
func (f *Fused) Open() error { return f.child.Open() }

// NextBatch pulls child batches, narrows the selection through the
// residual predicate (skipping fully filtered batches), and materializes
// the projection — aliases, typed programs, generic evaluation — into a
// reused output batch.
func (f *Fused) NextBatch() (*exec.Batch, error) {
	if f.out == nil {
		f.out = &exec.Batch{Cols: make([][]datum.Datum, len(f.outs))}
	}
	for {
		b, err := f.child.NextBatch()
		if err != nil {
			return nil, err
		}
		sel := b.Sel
		if f.pred != nil {
			sel, err = expr.FilterBatch(f.pred, b.Cols, b.N, b.Sel, f.selBuf[:0])
			if err != nil {
				return nil, err
			}
			f.selBuf = sel
			if len(sel) == 0 {
				continue
			}
		}
		out := f.out
		out.N = b.N
		out.Sel = sel
		for j := range f.outs {
			oc := &f.outs[j]
			if oc.alias >= 0 && oc.alias < len(b.Cols) && len(b.Cols[oc.alias]) >= b.N {
				out.Cols[j] = b.Cols[oc.alias][:b.N]
				continue
			}
			if cap(oc.scratch) < b.N {
				oc.scratch = make([]datum.Datum, b.N)
			}
			oc.scratch = oc.scratch[:b.N]
			if err := expr.EvalBatch(oc.e, b.Cols, b.N, sel, oc.scratch); err != nil {
				return nil, err
			}
			out.Cols[j] = oc.scratch
		}
		return out, nil
	}
}

// Close closes the child.
func (f *Fused) Close() error { return f.child.Close() }

// Columns returns the projected schema.
func (f *Fused) Columns() []exec.Col { return f.cols }
