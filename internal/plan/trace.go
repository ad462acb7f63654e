package plan

import (
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// Span wiring: when the execution context carries a qtrace.Profile, the
// binder wraps each operator it assembles so per-operator time and
// row/batch counts attribute to a span tree mirroring the plan shape.
// With no profile the helper returns the operator untouched — the
// disabled path assembles the exact same chain, preserving both the
// overhead gate and RowBudgeter pushdown.

// span wraps op with a span over the given children and makes that span
// the current pipeline top's. When counted, produced batches also bump ctr
// on the profile — the compiled-kernel versus row-interpreter split.
func (bi *binder) span(label string, op exec.Operator, ctr qtrace.Counter, counted bool, children ...*qtrace.Span) exec.Operator {
	if bi.prof == nil {
		return op
	}
	bi.curSpan = qtrace.NewSpan(label, compactSpans(children)...)
	sp := exec.NewSpan(bi.curSpan, op)
	if counted {
		sp.CountBatches(bi.prof, ctr)
	}
	return sp
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

// interprets reports whether any projection output runs the row
// interpreter: neither a bare column reference nor a compiled kernel.
func interprets(outs []expr.Expr) bool {
	for _, e := range outs {
		switch e.(type) {
		case *expr.ColRef, *expr.Kernel:
		default:
			return true
		}
	}
	return false
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
