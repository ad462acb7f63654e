package kernel

// Typed value programs. A value shape — arithmetic over columns, literals
// and nested arithmetic — compiles to postfix instructions; instantiating
// them for one execution types every node (a column from its ColRef.Type,
// a literal from its tag) and yields a tree of loops over []int64 and
// []float64 plus a NULL mask. The loops mirror expr's arithmetic exactly:
// Date ± Int stays a Date (in days), Int ⊙ Int other than division stays
// Int, everything else computes in float64, division by zero errors, and a
// NULL operand yields the typed NULL the interpreter produces.
//
// A subtree the typed walk cannot express (CASE, LIKE, a Text operand …)
// becomes a fallback slot: expr.EvalBatch runs the row interpreter over it
// and its Datums load into a typed vector. A live value whose tag
// disagrees with its node's static type makes the program report ok=false
// for that batch, and the caller runs the row interpreter instead — the
// filter kernels' layout guard, applied to types.

import (
	"fmt"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// vop is a value-program instruction.
type vop uint8

const (
	vCol   vop = iota // push column idx of static type typ
	vLit              // push literal slot idx
	vFall             // push fallback slot idx
	vArith            // pop r, pop l, push l ar r
)

type vinstr struct {
	op  vop
	idx int
	typ datum.Type
	ar  expr.Op
}

// vecFn runs one node of an instantiated program over the live positions
// of a batch of height n.
//
//nodb:hotpath
type vecFn func(cols [][]datum.Datum, n int, live []int) (v *expr.Vec, ok bool, err error)

// typed reports whether values of type t have a typed-vector form.
func typed(t datum.Type) bool {
	switch t {
	case datum.Int, datum.Float, datum.Date, datum.Bool:
		return true
	}
	return false
}

// typedNode reports whether the typed walk expresses e itself. Any other
// operand of a compiled arithmetic node becomes a fallback slot, and an
// arithmetic node both of whose operands would be fallbacks is left whole
// to its parent's fallback.
func typedNode(e expr.Expr) bool {
	switch n := e.(type) {
	case *expr.Kernel:
		return typedNode(n.E)
	case *expr.ColRef:
		return n.Index >= 0 && typed(n.Type)
	case *expr.Const:
		return true
	case *expr.BinOp:
		return n.Op <= expr.Div && (typedNode(n.L) || typedNode(n.R)) // Add, Sub, Mul, Div
	}
	return false
}

// compileValue walks a value shape for which typedNode holds, emitting its
// signature and, in build mode, its instructions.
func compileValue(e expr.Expr, st *cstate) {
	switch n := e.(type) {
	case *expr.Kernel:
		compileValue(n.E, st)
	case *expr.ColRef:
		st.addCol(n.Index)
		st.sigf("c%d:%d", n.Index, int(n.Type))
		st.emit(vinstr{op: vCol, idx: n.Index, typ: n.Type})
	case *expr.Const:
		li := st.addLit(n.D)
		st.sigf("l%d", li)
		st.emit(vinstr{op: vLit, idx: li})
	case *expr.BinOp:
		st.sigf("ar%d(", int(n.Op))
		compileOperand(n.L, st)
		st.sigf(",")
		compileOperand(n.R, st)
		st.sigf(")")
		st.emit(vinstr{op: vArith, ar: n.Op})
	}
}

func compileOperand(e expr.Expr, st *cstate) {
	if typedNode(e) {
		compileValue(e, st)
		return
	}
	fi := st.addFall(e)
	st.sigf("f%d", fi)
	st.emit(vinstr{op: vFall, idx: fi})
}

// operand is one typed node of an instantiation.
type operand struct {
	run vecFn
	t   datum.Type
	lit bool // a constant vector: carries the float64 form in F as well
}

// instantiate types a program for one execution's literals and fallback
// subtrees and returns its batch entry point (the expr.Kernel.EvalVec
// contract). ok=false declines the binding — a NULL or non-numeric
// literal, a fallback whose static type has no typed form — and the
// caller keeps the interpreted tree.
func instantiate(prog []vinstr, lits []datum.Datum, falls []expr.Expr) (func(cols [][]datum.Datum, n int, sel []int) (*expr.Vec, bool, error), bool) {
	stack := make([]operand, 0, 4)
	for _, in := range prog {
		switch in.op {
		case vCol:
			stack = append(stack, operand{run: colNode(in.idx, in.typ), t: in.typ})
		case vLit:
			d := lits[in.idx]
			if d.Null() || !typed(d.T) {
				return nil, false
			}
			stack = append(stack, operand{run: litNode(d), t: d.T, lit: true})
		case vFall:
			e := falls[in.idx]
			t := expr.StaticType(e)
			if !typed(t) {
				return nil, false
			}
			stack = append(stack, operand{run: fallNode(e, t), t: t})
		case vArith:
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			a := &arith{op: in.ar, l: l, r: r}
			a.out.v.T = arithType(in.ar, l.t, r.t)
			stack = append(stack[:len(stack)-2], operand{run: a.run, t: a.out.v.T})
		}
	}
	root := stack[0].run
	var dense []int
	return func(cols [][]datum.Datum, n int, sel []int) (*expr.Vec, bool, error) {
		live := sel
		if live == nil {
			for len(dense) < n {
				dense = append(dense, len(dense))
			}
			live = dense[:n]
		}
		return root(cols, n, live)
	}, true
}

// arithType is the tag expr's arithmetic gives a non-NULL result.
func arithType(op expr.Op, l, r datum.Type) datum.Type {
	switch {
	case l == datum.Date && r == datum.Int && (op == expr.Add || op == expr.Sub):
		return datum.Date
	case l == datum.Int && r == datum.Int && op != expr.Div:
		return datum.Int
	}
	return datum.Float
}

// buf is a node's reusable output vector and NULL scratch.
type buf struct {
	v     expr.Vec
	nulls []bool
	tags  []datum.Type
	vals  []datum.Datum // a fallback node's Datums
}

// reserve sizes the buffers for a batch of height n.
func (b *buf) reserve(n int) {
	if len(b.nulls) >= n {
		return
	}
	b.nulls, b.tags = make([]bool, n), make([]datum.Type, n)
	if b.v.T == datum.Float {
		b.v.F = make([]float64, n)
	} else {
		b.v.I = make([]int64, n)
	}
}

// load fills b.v from Datums at the live positions. It reports false when
// a non-NULL value's tag is not b.v.T. The first loop assumes no NULLs;
// the second, entered at the first NULL, records the mask.
//
//nodb:hotpath
func (b *buf) load(src []datum.Datum, live []int) bool {
	v, t := &b.v, b.v.T
	v.Null, v.NullT = nil, nil
	for k, i := range live {
		d := &src[i]
		switch {
		case d.T != t || d.Null():
			return b.loadNulls(src, live, k)
		case t == datum.Float:
			v.F[i] = d.Float()
		default:
			v.I[i] = d.Int()
		}
	}
	return true
}

// loadNulls is load's NULL-aware tail, from live[from:] on.
func (b *buf) loadNulls(src []datum.Datum, live []int, from int) bool {
	v, nulls, tags := &b.v, b.nulls, b.tags
	for _, i := range live[:from] {
		nulls[i] = false
	}
	for _, i := range live[from:] {
		switch d := &src[i]; {
		case d.Null():
			nulls[i], tags[i] = true, d.T
			continue
		case d.T != v.T:
			return false
		case d.T == datum.Float:
			v.F[i] = d.Float()
		default:
			v.I[i] = d.Int()
		}
		nulls[i] = false
	}
	v.Null, v.NullT = nulls, tags
	return true
}

// colNode loads a column.
func colNode(idx int, t datum.Type) vecFn {
	b := &buf{v: expr.Vec{T: t}}
	return func(cols [][]datum.Datum, n int, live []int) (*expr.Vec, bool, error) {
		if idx >= len(cols) || len(cols[idx]) < n {
			return nil, false, nil
		}
		b.reserve(n)
		return &b.v, b.load(cols[idx], live), nil
	}
}

// fallNode evaluates a subtree with the row interpreter and loads the
// result.
func fallNode(e expr.Expr, t datum.Type) vecFn {
	b := &buf{v: expr.Vec{T: t}}
	return func(cols [][]datum.Datum, n int, live []int) (*expr.Vec, bool, error) {
		b.reserve(n)
		if len(b.vals) < n {
			b.vals = make([]datum.Datum, n)
		}
		if err := expr.EvalBatch(e, cols, n, live, b.vals); err != nil {
			return nil, true, err
		}
		return &b.v, b.load(b.vals, live), nil
	}
}

// litNode is a constant vector, filled once per batch capacity. It
// carries the payload in I and its float64 form in F, so float arithmetic
// over an integer literal converts nothing per batch.
func litNode(d datum.Datum) vecFn {
	v := &expr.Vec{T: d.T}
	iv, fv := d.Int(), d.Float()
	return func(_ [][]datum.Datum, n int, _ []int) (*expr.Vec, bool, error) {
		if len(v.F) < n {
			v.I, v.F = make([]int64, n), make([]float64, n)
			for i := range v.F {
				v.I[i], v.F[i] = iv, fv
			}
		}
		return v, true, nil
	}
}

// arith is an instantiated arithmetic node.
type arith struct {
	op     expr.Op
	l, r   operand
	out    buf
	lf, rf []float64 // float64 forms of integer operands
}

// run evaluates both operands, then the operator over their payloads at
// every live position (NULL positions compute garbage the mask hides),
// then the result's NULL mask.
//
//nodb:hotpath
func (a *arith) run(cols [][]datum.Datum, n int, live []int) (*expr.Vec, bool, error) {
	lv, ok, err := a.l.run(cols, n, live)
	if err != nil || !ok {
		return nil, ok, err
	}
	rv, ok, err := a.r.run(cols, n, live)
	if err != nil || !ok {
		return nil, ok, err
	}
	a.out.reserve(n)
	v := &a.out.v
	if v.T == datum.Float {
		x := floats(lv, a.l, &a.lf, n, live)
		y := floats(rv, a.r, &a.rf, n, live)
		if a.op == expr.Div {
			for _, i := range live {
				if y[i] == 0 && !lv.IsNull(i) && !rv.IsNull(i) {
					return nil, true, fmt.Errorf("expr: division by zero")
				}
			}
		}
		arithLoop(a.op, v.F, x, y, live)
	} else {
		arithLoop(a.op, v.I, lv.I, rv.I, live)
	}
	a.mergeNulls(lv, rv, live)
	return v, true, nil
}

// floats returns an operand's payloads as float64: F itself for Float
// vectors and constants, else converted into *scratch.
func floats(v *expr.Vec, o operand, scratch *[]float64, n int, live []int) []float64 {
	if o.t == datum.Float || o.lit {
		return v.F
	}
	if len(*scratch) < n {
		*scratch = make([]float64, n)
	}
	f := *scratch
	for _, i := range live {
		f[i] = float64(v.I[i])
	}
	return f
}

// arithLoop applies op at every live position. Int and Date results never
// divide (expr divides in float64).
//
//nodb:hotpath
func arithLoop[T int64 | float64](op expr.Op, dst, x, y []T, live []int) {
	switch op {
	case expr.Add:
		for _, i := range live {
			dst[i] = x[i] + y[i]
		}
	case expr.Sub:
		for _, i := range live {
			dst[i] = x[i] - y[i]
		}
	case expr.Mul:
		for _, i := range live {
			dst[i] = x[i] * y[i]
		}
	case expr.Div:
		for _, i := range live {
			dst[i] = x[i] / y[i]
		}
	}
}

// mergeNulls ORs the operands' NULL masks into the result and tags each
// NULL as expr does: Float when either operand's tag is Float, else the
// left operand's tag.
//
//nodb:hotpath
func (a *arith) mergeNulls(lv, rv *expr.Vec, live []int) {
	v := &a.out.v
	v.Null, v.NullT = nil, nil
	if lv.Null == nil && rv.Null == nil {
		return
	}
	nulls, tags := a.out.nulls, a.out.tags
	for _, i := range live {
		ln, rn := lv.IsNull(i), rv.IsNull(i)
		nulls[i] = ln || rn
		if !nulls[i] {
			continue
		}
		lt, rt := a.l.t, a.r.t
		if ln {
			lt = lv.NullT[i]
		}
		if rn {
			rt = rv.NullT[i]
		}
		if rt == datum.Float {
			lt = datum.Float
		}
		tags[i] = lt
	}
	v.Null, v.NullT = nulls, tags
}
