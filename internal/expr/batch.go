package expr

// Batch evaluation. EvalBatch and FilterBatch evaluate an expression over
// a column-major batch of values. A node carrying compiled closures
// (Kernel, built by internal/kernel) runs them; any other node, and any
// batch a kernel declines, runs the row interpreter at every live
// position. The interpreter is the semantic reference the kernels are
// tested against, so the two cannot disagree on SQL semantics.

import "nodb/internal/datum"

// EvalBatch evaluates e at every live position of a column-major batch,
// writing the result for position i into out[i]. cols is the row layout
// (ColRef ordinals index it), n the batch height; sel, when non-nil, lists
// the live positions in ascending order (dead positions of out are left
// untouched). out must have length >= n.
//
//nodb:hotpath
func EvalBatch(e Expr, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	if k, ok := e.(*Kernel); ok {
		if k.EvalVec != nil {
			v, ok, err := k.EvalVec(cols, n, sel)
			if err != nil {
				return err
			}
			if ok {
				v.Materialize(out, n, sel)
				return nil
			}
		}
		e = k.E
	}
	row := make([]datum.Datum, len(cols))
	for k := 0; k < liveCount(n, sel); k++ {
		i := livePos(sel, k)
		v, err := e.Eval(gatherRow(row, cols, i))
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// FilterBatch narrows a selection vector to the live positions where e
// evaluates to true (NULL drops the row, like TruthyResult). sel lists the
// candidate positions (nil = all of 0..n); the surviving positions are
// appended to buf (pass buf[:0] to reuse capacity) and returned in
// ascending order. Narrowing in place — FilterBatch(e, cols, n, s, s[:0])
// — is safe because survivors are a subsequence of the input.
//
//nodb:hotpath
func FilterBatch(e Expr, cols [][]datum.Datum, n int, sel []int, buf []int) ([]int, error) {
	switch node := e.(type) {
	case *Kernel:
		if node.Filter != nil {
			if out, ok := node.Filter(cols, n, sel, buf); ok {
				return out, nil
			}
		}
		return FilterBatch(node.E, cols, n, sel, buf)
	case *BinOp:
		if node.Op == And {
			// Sequential narrowing implements AND exactly for filtering:
			// false and NULL both drop, so operand order only affects which
			// work is skipped, never the outcome.
			s, err := FilterBatch(node.L, cols, n, sel, buf)
			if err != nil || len(s) == 0 {
				// An empty survivor set must not flow on as a nil selection —
				// nil means "all rows live" to the next conjunct.
				return s, err
			}
			return FilterBatch(node.R, cols, n, s, s[:0])
		}
	}
	row := make([]datum.Datum, len(cols))
	for k := 0; k < liveCount(n, sel); k++ {
		i := livePos(sel, k)
		ok, err := TruthyResult(e, gatherRow(row, cols, i))
		if err != nil {
			return nil, err
		}
		if ok {
			buf = append(buf, i)
		}
	}
	return buf, nil
}

// liveCount is how many positions of a batch of height n are live.
func liveCount(n int, sel []int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// livePos is the k-th live position.
func livePos(sel []int, k int) int {
	if sel == nil {
		return k
	}
	return sel[k]
}

// gatherRow copies position i of every column into row and returns it.
// Columns shorter than the batch (a producer may leave columns the query
// never references unfilled) read as zero datums; the expression cannot
// reference them, or the producer would have filled them.
func gatherRow(row []datum.Datum, cols [][]datum.Datum, i int) []datum.Datum {
	for j, c := range cols {
		if i < len(c) {
			row[j] = c[i]
		} else {
			row[j] = datum.Datum{}
		}
	}
	return row
}
