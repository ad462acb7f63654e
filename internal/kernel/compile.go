package kernel

// The shape compiler. compileFilter / compileValue walk an expression tree
// once, emitting the shape's normalized signature (literal values replaced
// by slot markers) and — in build mode — the compiled program: a tree of
// closures whose literal-dependent parts are deferred to a prep stage, so
// one cached compilation serves every execution and every statement that
// differs only in its constants.
//
// Every compiled loop mirrors the interpreted semantics exactly: NULL
// operands drop rows (filters) or propagate typed NULLs (projections),
// per-row type guards defer to datum.Compare for operand
// combinations outside the specialized fast path, and selection vectors
// are narrowed as ascending subsequences, matching expr.FilterBatch's
// in-place-narrowing contract.

import (
	"fmt"
	"strings"
	"sync"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// cstate accumulates one compilation walk: the normalized signature, the
// extracted literals and fallback subtrees (analyze mode), and the columns
// the compiled closures will index plus a value program's instructions
// (build mode).
type cstate struct {
	sig    *strings.Builder
	build  bool
	nlits  int
	lits   []datum.Datum
	nfalls int
	falls  []expr.Expr
	cols   []int
	prog   []vinstr
}

// addFall assigns the next fallback slot, recording the subtree in
// analyze mode, and returns the slot index.
func (st *cstate) addFall(e expr.Expr) int {
	idx := st.nfalls
	st.nfalls++
	if !st.build {
		st.falls = append(st.falls, e)
	}
	return idx
}

// emit appends a value-program instruction (build mode).
func (st *cstate) emit(in vinstr) {
	if st.build {
		st.prog = append(st.prog, in)
	}
}

// addLit assigns the next literal slot, recording the value in analyze
// mode, and returns the slot index.
func (st *cstate) addLit(d datum.Datum) int {
	idx := st.nlits
	st.nlits++
	if !st.build {
		st.lits = append(st.lits, d)
	}
	return idx
}

// addCol records a column the compiled closures index directly.
func (st *cstate) addCol(idx int) {
	if st.build {
		st.cols = append(st.cols, idx)
	}
}

func (st *cstate) sigf(format string, args ...any) {
	fmt.Fprintf(st.sig, format, args...)
}

// analyzeFilter runs the compilation walk in analyze mode: the signature
// and literal vector advance, no closures are built. It shares the walk
// with the build mode, so literal slot order cannot diverge.
func analyzeFilter(e expr.Expr, st *cstate) bool { _, ok := compileFilter(e, st); return ok }

// rawFilter is a compiled predicate body: preconditions (column layout)
// have already been checked, so it only appends survivors.
//
//nodb:hotpath
type rawFilter func(cols [][]datum.Datum, n int, sel []int, buf []int) []int

// prepFilter specializes a compiled predicate for one execution's literals.
type prepFilter func(lits []datum.Datum) rawFilter

// compileFilter compiles a predicate shape, returning the prep stage
// (build mode) and whether the shape is supported.
func compileFilter(e expr.Expr, st *cstate) (prepFilter, bool) {
	switch n := e.(type) {
	case *expr.BinOp:
		switch n.Op {
		case expr.And, expr.Or:
			return compileLogic(n, st)
		case expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge:
			return compileCmp(n, st)
		}
		return nil, false
	case *expr.Between:
		return compileBetween(n, st)
	case *expr.In:
		return compileIn(n, st)
	case *expr.IsNull:
		return compileIsNull(n, st)
	case *expr.Kernel:
		return compileFilter(n.E, st)
	default:
		return nil, false
	}
}

// wrapFilter attaches the upfront layout check to a compiled predicate:
// every indexed column must exist and be filled to the batch height,
// verified before anything is written, so a fallback to the interpreted
// tree never sees partially narrowed state.
func wrapFilter(prep prepFilter, cols []int) func(lits []datum.Datum) filterFn {
	return func(lits []datum.Datum) filterFn {
		run := prep(lits)
		return func(batchCols [][]datum.Datum, n int, sel []int, buf []int) ([]int, bool) {
			for _, ci := range cols {
				if ci >= len(batchCols) || len(batchCols[ci]) < n {
					return nil, false
				}
			}
			return run(batchCols, n, sel, buf), true
		}
	}
}

// selPool recycles the scratch selection vectors OR composition needs.
var selPool = sync.Pool{New: func() any { return new([]int) }}

// compileLogic compiles AND (sequential narrowing — operand order only
// affects skipped work, never the outcome, because false and NULL both
// drop) and OR (union of the two survivor sets; compiled leaves cannot
// error, so evaluating both sides everywhere is safe).
func compileLogic(b *expr.BinOp, st *cstate) (prepFilter, bool) {
	if b.Op == expr.And {
		st.sigf("and(")
	} else {
		st.sigf("or(")
	}
	lp, ok := compileFilter(b.L, st)
	if !ok {
		return nil, false
	}
	st.sigf(",")
	rp, ok := compileFilter(b.R, st)
	if !ok {
		return nil, false
	}
	st.sigf(")")
	if !st.build {
		return nil, true
	}
	if b.Op == expr.And {
		return func(lits []datum.Datum) rawFilter {
			lf, rf := lp(lits), rp(lits)
			return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
				a := lf(cols, n, sel, buf)
				if len(a) == 0 {
					return a
				}
				return rf(cols, n, a, a[:0])
			}
		}, true
	}
	return func(lits []datum.Datum) rawFilter {
		lf, rf := lp(lits), rp(lits)
		return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
			ap, bp := selPool.Get().(*[]int), selPool.Get().(*[]int)
			a := lf(cols, n, sel, (*ap)[:0])
			b := rf(cols, n, sel, (*bp)[:0])
			// Merge-union two ascending lists; both are read before buf is
			// written, so in-place narrowing of sel stays safe.
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					buf = append(buf, a[i])
					i++
				case a[i] > b[j]:
					buf = append(buf, b[j])
					j++
				default:
					buf = append(buf, a[i])
					i++
					j++
				}
			}
			buf = append(buf, a[i:]...)
			buf = append(buf, b[j:]...)
			*ap, *bp = a, b
			selPool.Put(ap)
			selPool.Put(bp)
			return buf
		}
	}, true
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// flip mirrors a comparison when its operands swap sides.
func flip(op expr.Op) expr.Op {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	}
	return op
}

// colLit extracts the (column, literal) operands of a binary node in either
// order; flipped reports the literal was on the left.
func colLit(b *expr.BinOp) (cr *expr.ColRef, lit datum.Datum, flipped, ok bool) {
	if c, isC := b.L.(*expr.ColRef); isC {
		if k, isK := b.R.(*expr.Const); isK {
			return c, k.D, false, true
		}
	}
	if c, isC := b.R.(*expr.ColRef); isC {
		if k, isK := b.L.(*expr.Const); isK {
			return c, k.D, true, true
		}
	}
	return nil, datum.Datum{}, false, false
}

// dropAll is the compiled body of a predicate nothing can satisfy (NULL
// comparand): it keeps no rows.
func dropAll(cols [][]datum.Datum, n int, sel []int, buf []int) []int { return buf }

// compileColCmp compiles "col <op> col". There is no literal to pick a
// specialization from, so the loop guards per element: two Int, two Date or
// two Float operands compare their payloads directly, any other pairing
// defers to datum.Compare, and a NULL on either side drops the row.
func compileColCmp(b *expr.BinOp, l, r *expr.ColRef, st *cstate) (prepFilter, bool) {
	if l.Index < 0 || r.Index < 0 {
		return nil, false
	}
	st.addCol(l.Index)
	st.addCol(r.Index)
	st.sigf("cmp%d(c%d,c%d)", int(b.Op), l.Index, r.Index)
	if !st.build {
		return nil, true
	}
	op, li, ri := b.Op, l.Index, r.Index
	keep := func(x, y datum.Datum) bool {
		if x.Null() || y.Null() {
			return false
		}
		var c int
		switch {
		case x.T == y.T && (x.T == datum.Int || x.T == datum.Date):
			c = cmp64(x.Int(), y.Int())
		case x.T == datum.Float && y.T == datum.Float:
			c = cmpF(x.Float(), y.Float())
		default:
			c = datum.Compare(x, y)
		}
		return expr.CmpMatches(op, c)
	}
	return func([]datum.Datum) rawFilter {
		return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
			lc, rc := cols[li], cols[ri]
			if sel == nil {
				for i := 0; i < n; i++ {
					if keep(lc[i], rc[i]) {
						buf = append(buf, i)
					}
				}
				return buf
			}
			for _, i := range sel {
				if keep(lc[i], rc[i]) {
					buf = append(buf, i)
				}
			}
			return buf
		}
	}, true
}

// compileCmp compiles "col <op> literal" (either side) into a typed loop.
// The literal's runtime type picks the specialization at prep time, so a
// re-bound parameter that changes type re-specializes without recompiling.
// "col <op> col" goes to compileColCmp.
func compileCmp(b *expr.BinOp, st *cstate) (prepFilter, bool) {
	if l, isL := b.L.(*expr.ColRef); isL {
		if r, isR := b.R.(*expr.ColRef); isR {
			return compileColCmp(b, l, r, st)
		}
	}
	cr, lit, flipped, ok := colLit(b)
	if !ok || cr.Index < 0 {
		return nil, false
	}
	op := b.Op
	if flipped {
		op = flip(op)
	}
	li := st.addLit(lit)
	st.addCol(cr.Index)
	st.sigf("cmp%d(c%d,l%d)", int(op), cr.Index, li)
	if !st.build {
		return nil, true
	}
	idx := cr.Index
	return func(lits []datum.Datum) rawFilter {
		k := lits[li]
		if k.Null() {
			return dropAll // NULL comparand: nothing qualifies
		}
		switch k.T {
		case datum.Int, datum.Date:
			kv, t := k.Int(), k.T
			return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
				col := cols[idx]
				if sel == nil {
					for i := 0; i < n; i++ {
						if d := col[i]; !d.Null() {
							var c int
							if d.T == t {
								c = cmp64(d.Int(), kv)
							} else {
								c = datum.Compare(d, k)
							}
							if expr.CmpMatches(op, c) {
								buf = append(buf, i)
							}
						}
					}
					return buf
				}
				for _, i := range sel {
					if d := col[i]; !d.Null() {
						var c int
						if d.T == t {
							c = cmp64(d.Int(), kv)
						} else {
							c = datum.Compare(d, k)
						}
						if expr.CmpMatches(op, c) {
							buf = append(buf, i)
						}
					}
				}
				return buf
			}
		case datum.Float:
			kv := k.Float()
			return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
				col := cols[idx]
				if sel == nil {
					for i := 0; i < n; i++ {
						if d := col[i]; !d.Null() {
							var c int
							if d.T == datum.Int || d.T == datum.Float {
								c = cmpF(d.Float(), kv)
							} else {
								c = datum.Compare(d, k)
							}
							if expr.CmpMatches(op, c) {
								buf = append(buf, i)
							}
						}
					}
					return buf
				}
				for _, i := range sel {
					if d := col[i]; !d.Null() {
						var c int
						if d.T == datum.Int || d.T == datum.Float {
							c = cmpF(d.Float(), kv)
						} else {
							c = datum.Compare(d, k)
						}
						if expr.CmpMatches(op, c) {
							buf = append(buf, i)
						}
					}
				}
				return buf
			}
		case datum.Text:
			kv := k.Text()
			if op == expr.Eq || op == expr.Ne {
				want := op == expr.Eq
				return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
					col := cols[idx]
					if sel == nil {
						for i := 0; i < n; i++ {
							if d := col[i]; !d.Null() {
								var eq bool
								if d.T == datum.Text {
									eq = d.Text() == kv
								} else {
									eq = datum.Compare(d, k) == 0
								}
								if eq == want {
									buf = append(buf, i)
								}
							}
						}
						return buf
					}
					for _, i := range sel {
						if d := col[i]; !d.Null() {
							var eq bool
							if d.T == datum.Text {
								eq = d.Text() == kv
							} else {
								eq = datum.Compare(d, k) == 0
							}
							if eq == want {
								buf = append(buf, i)
							}
						}
					}
					return buf
				}
			}
			fallthrough
		default:
			return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
				col := cols[idx]
				if sel == nil {
					for i := 0; i < n; i++ {
						if d := col[i]; !d.Null() && expr.CmpMatches(op, datum.Compare(d, k)) {
							buf = append(buf, i)
						}
					}
					return buf
				}
				for _, i := range sel {
					if d := col[i]; !d.Null() && expr.CmpMatches(op, datum.Compare(d, k)) {
						buf = append(buf, i)
					}
				}
				return buf
			}
		}
	}, true
}

// compileBetween compiles "col BETWEEN lit AND lit": bounds of one
// Int/Date tag compare payloads, Float bounds compare numerically, and
// every other pairing defers to datum.Compare.
func compileBetween(b *expr.Between, st *cstate) (prepFilter, bool) {
	cr, okc := b.E.(*expr.ColRef)
	loC, okl := b.Lo.(*expr.Const)
	hiC, okh := b.Hi.(*expr.Const)
	if !okc || !okl || !okh || cr.Index < 0 {
		return nil, false
	}
	loI := st.addLit(loC.D)
	hiI := st.addLit(hiC.D)
	st.addCol(cr.Index)
	st.sigf("bet(c%d,l%d,l%d)", cr.Index, loI, hiI)
	if !st.build {
		return nil, true
	}
	idx := cr.Index
	return func(lits []datum.Datum) rawFilter {
		lo, hi := lits[loI], lits[hiI]
		if lo.Null() || hi.Null() {
			return dropAll
		}
		intB := (lo.T == datum.Int || lo.T == datum.Date) && hi.T == lo.T
		floatB := lo.T == datum.Float && hi.T == datum.Float
		t, loi, hii, lof, hif := lo.T, lo.Int(), hi.Int(), lo.Float(), hi.Float()
		return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
			col := cols[idx]
			keep := func(d datum.Datum) bool {
				switch {
				case intB && d.T == t:
					return d.Int() >= loi && d.Int() <= hii
				case floatB && (d.T == datum.Int || d.T == datum.Float):
					return d.Float() >= lof && d.Float() <= hif
				}
				return datum.Compare(d, lo) >= 0 && datum.Compare(d, hi) <= 0
			}
			if sel == nil {
				for i := 0; i < n; i++ {
					if d := col[i]; !d.Null() && keep(d) {
						buf = append(buf, i)
					}
				}
				return buf
			}
			for _, i := range sel {
				if d := col[i]; !d.Null() && keep(d) {
					buf = append(buf, i)
				}
			}
			return buf
		}
	}, true
}

// compileIn compiles "col [NOT] IN (list)". Homogeneous Int/Date/Text
// lists probe a hash set built once per execution; heterogeneous lists and
// cross-type rows keep the interpreted linear scan (datum.Equal), so
// numeric cross-type membership (3 IN (3.0)) agrees with the tree walk.
func compileIn(in *expr.In, st *cstate) (prepFilter, bool) {
	cr, ok := in.E.(*expr.ColRef)
	if !ok || cr.Index < 0 {
		return nil, false
	}
	neg := 0
	if in.Negate {
		neg = 1
	}
	lis := make([]int, len(in.List))
	for i, d := range in.List {
		lis[i] = st.addLit(d)
	}
	st.addCol(cr.Index)
	st.sigf("in%d(c%d,%d@l%d)", neg, cr.Index, len(in.List), st.nlits-len(in.List))
	if !st.build {
		return nil, true
	}
	idx := cr.Index
	negate := in.Negate
	return func(lits []datum.Datum) rawFilter {
		list := make([]datum.Datum, len(lis))
		for i, li := range lis {
			list[i] = lits[li]
		}
		linear := func(v datum.Datum) bool {
			for _, d := range list {
				if datum.Equal(v, d) {
					return true
				}
			}
			return false
		}
		// member(v) reports list membership for a non-NULL v with the
		// interpreted semantics; specialized below when the list is
		// homogeneous.
		member := linear
		homo := func(t datum.Type) bool {
			for _, d := range list {
				if d.Null() || d.T != t {
					return false
				}
			}
			return len(list) > 0
		}
		switch {
		case homo(datum.Int):
			set := make(map[int64]struct{}, len(list))
			for _, d := range list {
				set[d.Int()] = struct{}{}
			}
			member = func(v datum.Datum) bool {
				if v.T == datum.Int {
					_, in := set[v.Int()]
					return in
				}
				return linear(v)
			}
		case homo(datum.Date):
			set := make(map[int64]struct{}, len(list))
			for _, d := range list {
				set[d.Int()] = struct{}{}
			}
			member = func(v datum.Datum) bool {
				if v.T == datum.Date {
					_, in := set[v.Int()]
					return in
				}
				return linear(v)
			}
		case homo(datum.Text):
			set := make(map[string]struct{}, len(list))
			for _, d := range list {
				set[d.Text()] = struct{}{}
			}
			member = func(v datum.Datum) bool {
				if v.T == datum.Text {
					_, in := set[v.Text()]
					return in
				}
				return linear(v)
			}
		}
		return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
			col := cols[idx]
			if sel == nil {
				for i := 0; i < n; i++ {
					if d := col[i]; !d.Null() && member(d) != negate {
						buf = append(buf, i)
					}
				}
				return buf
			}
			for _, i := range sel {
				if d := col[i]; !d.Null() && member(d) != negate {
					buf = append(buf, i)
				}
			}
			return buf
		}
	}, true
}

// compileIsNull compiles "col IS [NOT] NULL".
func compileIsNull(n *expr.IsNull, st *cstate) (prepFilter, bool) {
	cr, ok := n.E.(*expr.ColRef)
	if !ok || cr.Index < 0 {
		return nil, false
	}
	neg := 0
	if n.Negate {
		neg = 1
	}
	st.addCol(cr.Index)
	st.sigf("isnull%d(c%d)", neg, cr.Index)
	if !st.build {
		return nil, true
	}
	idx := cr.Index
	negate := n.Negate
	return func([]datum.Datum) rawFilter {
		return func(cols [][]datum.Datum, n int, sel []int, buf []int) []int {
			col := cols[idx]
			if sel == nil {
				for i := 0; i < n; i++ {
					if col[i].Null() != negate {
						buf = append(buf, i)
					}
				}
				return buf
			}
			for _, i := range sel {
				if col[i].Null() != negate {
					buf = append(buf, i)
				}
			}
			return buf
		}
	}, true
}
