package plan

import (
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// Span wiring: when the execution context carries a qtrace.Profile, the
// binder wraps each operator it assembles so per-operator time and
// row/batch counts attribute to a span tree mirroring the plan shape.
// With no profile every helper returns the operator untouched — the
// disabled path assembles the exact same chain as before this layer
// existed, preserving both the overhead gate and the type-assertion fast
// paths (AsBatch, Drain's *BatchRows case, RowBudgeter pushdown).

// spanDual wraps a scan leaf or a hash join over the given child spans.
// Dual-interface operators (every format scan, every join) keep both
// executor views; row-only leaves (heap tables) keep the row view. Returns
// the operator's span for parent construction.
func (bi *binder) spanDual(label string, op exec.Operator, children ...*qtrace.Span) (exec.Operator, *qtrace.Span) {
	if bi.prof == nil {
		return op, nil
	}
	sp := qtrace.NewSpan(label, compactSpans(children)...)
	if dual, ok := op.(exec.DualOperator); ok {
		return exec.NewSpanDual(sp, dual), sp
	}
	return exec.NewSpanRow(sp, op), sp
}

// hasKernel reports whether any of the predicates carries a compiled
// filter kernel.
func hasKernel(preds ...expr.Expr) bool {
	for _, e := range preds {
		if _, ok := e.(*expr.Kernel); ok {
			return true
		}
	}
	return false
}

// spanRow wraps a row operator with a span over the given children.
func (bi *binder) spanRow(label string, op exec.Operator, children ...*qtrace.Span) exec.Operator {
	if bi.prof == nil {
		return op
	}
	bi.curSpan = qtrace.NewSpan(label, compactSpans(children)...)
	return exec.NewSpanRow(bi.curSpan, op)
}

// spanBatch wraps a batch operator with a span over the given children.
// When counted, produced batches also bump ctr on the profile — the
// kernel-versus-generic vectorized split.
func (bi *binder) spanBatch(label string, op exec.BatchOperator, ctr qtrace.Counter, counted bool, children ...*qtrace.Span) exec.BatchOperator {
	if bi.prof == nil {
		return op
	}
	bi.curSpan = qtrace.NewSpan(label, compactSpans(children)...)
	sb := exec.NewSpanBatch(bi.curSpan, op)
	if counted {
		sb.CountBatches(bi.prof, ctr)
	}
	return sb
}

// compactSpans drops nil children (a child assembled before profiling
// decisions never has a span).
func compactSpans(spans []*qtrace.Span) []*qtrace.Span {
	out := spans[:0]
	for _, sp := range spans {
		if sp != nil {
			out = append(out, sp)
		}
	}
	return out
}
