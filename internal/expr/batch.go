package expr

// Vectorized expression evaluation. EvalBatch and FilterBatch walk the
// same expression trees as Eval, but over column-major batches of values,
// amortizing the per-row interface dispatch that dominates row-at-a-time
// execution. Arithmetic, comparisons and logic combine whole vectors;
// everything else falls back to gathering one row and calling Eval, so the
// two paths always agree on semantics (SQL three-valued logic included).
// The typed fast paths are the compiled kernels (internal/kernel), which
// FilterBatch and EvalBatch run first when a node carries them.

import (
	"sync"

	"nodb/internal/datum"
)

// vecPool recycles scratch vectors between EvalBatch calls — a deep
// expression over a 1k-row batch would otherwise allocate two fresh
// vectors per binary node per batch.
var vecPool = sync.Pool{New: func() any { return new([]datum.Datum) }}

// selPool recycles selection-index scratch (evalLogicBatch's needR).
var selPool = sync.Pool{New: func() any { return new([]int) }}

func getVec(n int) *[]datum.Datum {
	vp := vecPool.Get().(*[]datum.Datum)
	if cap(*vp) < n {
		*vp = make([]datum.Datum, n)
	}
	*vp = (*vp)[:n]
	return vp
}

func putVec(vp *[]datum.Datum) {
	vecPool.Put(vp)
}

// EvalBatch evaluates e at every live position of a column-major batch,
// writing the result for position i into out[i]. cols is the row layout
// (ColRef ordinals index it), n the batch height; sel, when non-nil, lists
// the live positions in ascending order (dead positions of out are left
// untouched). out must have length >= n.
//
//nodb:hotpath
func EvalBatch(e Expr, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	switch node := e.(type) {
	case *Kernel:
		if node.EvalVec != nil {
			v, ok, err := node.EvalVec(cols, n, sel)
			if err != nil {
				return err
			}
			if ok {
				v.Materialize(out, n, sel)
				return nil
			}
		}
		return EvalBatch(node.E, cols, n, sel, out)
	case *Const:
		if sel == nil {
			for i := 0; i < n; i++ {
				out[i] = node.D
			}
		} else {
			for _, i := range sel {
				out[i] = node.D
			}
		}
		return nil
	case *ColRef:
		if node.Index < 0 || node.Index >= len(cols) {
			// Defer to Eval for its precise error message.
			return evalBatchFallback(e, cols, n, sel, out)
		}
		col := cols[node.Index]
		if sel == nil {
			copy(out[:n], col[:n])
		} else {
			for _, i := range sel {
				out[i] = col[i]
			}
		}
		return nil
	case *BinOp:
		switch node.Op {
		case Add, Sub, Mul, Div:
			return evalArithBatch(node, cols, n, sel, out)
		case Eq, Ne, Lt, Le, Gt, Ge:
			return evalCompareBatch(node, cols, n, sel, out)
		case And, Or:
			return evalLogicBatch(node, cols, n, sel, out)
		}
	case *Not:
		if err := EvalBatch(node.E, cols, n, sel, out); err != nil {
			return err
		}
		forEachLive(n, sel, func(i int) {
			if !out[i].Null() {
				out[i] = datum.NewBool(!out[i].Bool())
			} else {
				out[i] = datum.NewNull(datum.Bool)
			}
		})
		return nil
	case *Neg:
		if err := EvalBatch(node.E, cols, n, sel, out); err != nil {
			return err
		}
		forEachLive(n, sel, func(i int) {
			v := out[i]
			if v.Null() {
				return
			}
			if v.T == datum.Int {
				out[i] = datum.NewInt(-v.Int())
			} else {
				out[i] = datum.NewFloat(-v.Float())
			}
		})
		return nil
	}
	return evalBatchFallback(e, cols, n, sel, out)
}

// forEachLive invokes fn for every live position.
func forEachLive(n int, sel []int, fn func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
	} else {
		for _, i := range sel {
			fn(i)
		}
	}
}

// evalBatchFallback gathers one row per live position and evaluates e with
// the scalar interpreter — the semantic reference for every fast path.
// Columns shorter than the batch (a producer may leave columns the query
// never references unfilled) read as zero datums; the expression cannot
// reference them, or the producer would have filled them.
func evalBatchFallback(e Expr, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	row := make([]datum.Datum, len(cols))
	var ferr error
	forEachLive(n, sel, func(i int) {
		if ferr != nil {
			return
		}
		for j := range cols {
			if i < len(cols[j]) {
				row[j] = cols[j][i]
			} else {
				row[j] = datum.Datum{}
			}
		}
		v, err := e.Eval(row)
		if err != nil {
			ferr = err
			return
		}
		out[i] = v
	})
	return ferr
}

// evalArithBatch computes an arithmetic BinOp over vectors: both sides are
// evaluated into scratch vectors, then combined per live position.
func evalArithBatch(b *BinOp, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	lvp, rvp, err := evalSides(b, cols, n, sel)
	if err != nil {
		return err
	}
	defer putVec(lvp)
	defer putVec(rvp)
	lv, rv := *lvp, *rvp
	var ferr error
	forEachLive(n, sel, func(i int) {
		if ferr != nil {
			return
		}
		l, r := lv[i], rv[i]
		if l.Null() || r.Null() {
			out[i] = datum.NewNull(resultType(b.Op, l, r))
			return
		}
		out[i], ferr = evalArith(b.Op, l, r)
	})
	return ferr
}

// evalCompareBatch computes a comparison BinOp into boolean datums.
func evalCompareBatch(b *BinOp, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	lvp, rvp, err := evalSides(b, cols, n, sel)
	if err != nil {
		return err
	}
	defer putVec(lvp)
	defer putVec(rvp)
	lv, rv := *lvp, *rvp
	forEachLive(n, sel, func(i int) {
		l, r := lv[i], rv[i]
		if l.Null() || r.Null() {
			out[i] = datum.NewNull(datum.Bool)
			return
		}
		out[i] = datum.NewBool(cmpMatches(b.Op, datum.Compare(l, r)))
	})
	return nil
}

// evalLogicBatch computes AND/OR with SQL three-valued logic over vectors.
// Like the scalar evalLogic, the right side is only evaluated where the
// left did not short-circuit (false for AND, true for OR), so expressions
// whose right side can error — 1/x guarded by x <> 0 — behave identically
// on both paths.
func evalLogicBatch(b *BinOp, cols [][]datum.Datum, n int, sel []int, out []datum.Datum) error {
	lvp := getVec(n)
	defer putVec(lvp)
	lv := *lvp
	if err := EvalBatch(b.L, cols, n, sel, lv); err != nil {
		return err
	}
	and := b.Op == And
	needRP := selPool.Get().(*[]int)
	needR := (*needRP)[:0]
	defer func() {
		*needRP = needR
		selPool.Put(needRP)
	}()
	forEachLive(n, sel, func(i int) {
		l := lv[i]
		if !l.Null() {
			if and && !l.Bool() {
				out[i] = datum.NewBool(false)
				return
			}
			if !and && l.Bool() {
				out[i] = datum.NewBool(true)
				return
			}
		}
		needR = append(needR, i)
	})
	if len(needR) == 0 {
		return nil
	}
	rvp := getVec(n)
	defer putVec(rvp)
	rv := *rvp
	if err := EvalBatch(b.R, cols, n, needR, rv); err != nil {
		return err
	}
	for _, i := range needR {
		l, r := lv[i], rv[i]
		rn := r.Null()
		if and {
			switch {
			case !rn && !r.Bool():
				out[i] = datum.NewBool(false)
			case l.Null() || rn:
				out[i] = datum.NewNull(datum.Bool)
			default:
				out[i] = datum.NewBool(l.Bool() && r.Bool())
			}
			continue
		}
		switch {
		case !rn && r.Bool():
			out[i] = datum.NewBool(true)
		case l.Null() || rn:
			out[i] = datum.NewNull(datum.Bool)
		default:
			out[i] = datum.NewBool(l.Bool() || r.Bool())
		}
	}
	return nil
}

// evalSides evaluates both operands of a BinOp into pooled scratch
// vectors; on success the caller must putVec both (on error they are
// already back in the pool).
func evalSides(b *BinOp, cols [][]datum.Datum, n int, sel []int) (*[]datum.Datum, *[]datum.Datum, error) {
	lv := getVec(n)
	rv := getVec(n)
	if err := EvalBatch(b.L, cols, n, sel, *lv); err != nil {
		putVec(lv)
		putVec(rv)
		return nil, nil, err
	}
	if err := EvalBatch(b.R, cols, n, sel, *rv); err != nil {
		putVec(lv)
		putVec(rv)
		return nil, nil, err
	}
	return lv, rv, nil
}

// CmpMatches reports whether a three-way comparison result (datum.Compare)
// satisfies a comparison operator. It is the shared reference the compiled
// kernels (internal/kernel) use, so the two paths cannot diverge.
func CmpMatches(op Op, c int) bool { return cmpMatches(op, c) }

// cmpMatches maps a datum.Compare result onto a comparison operator.
func cmpMatches(op Op, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
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
		switch node.Op {
		case And:
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
	return filterGeneric(e, cols, n, sel, buf)
}

// filterGeneric evaluates e as a vector and keeps the truthy positions.
func filterGeneric(e Expr, cols [][]datum.Datum, n int, sel []int, buf []int) ([]int, error) {
	vp := getVec(n)
	defer putVec(vp)
	vals := *vp
	if err := EvalBatch(e, cols, n, sel, vals); err != nil {
		return nil, err
	}
	forEachLive(n, sel, func(i int) {
		if !vals[i].Null() && vals[i].Bool() {
			buf = append(buf, i)
		}
	})
	return buf, nil
}
