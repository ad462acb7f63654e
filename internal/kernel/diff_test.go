package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// Differential tests: every expression bound through the kernel cache
// must evaluate, batch at a time, exactly as the row interpreter does row
// by row — whether a compiled closure runs or the shape falls back.

// exprsUnderTest is the shape zoo over testBatch's layout: typed
// comparisons, flipped constants, BETWEEN, IN, IS NULL, logic, arithmetic
// (with interpreted operands and a division that hits zero), CASE and
// LIKE.
func exprsUnderTest() []expr.Expr {
	ints, floats, dates, texts, bools := col(0, datum.Int), col(1, datum.Float),
		col(2, datum.Date), col(3, datum.Text), col(4, datum.Bool)
	ci := func(v int64) expr.Expr { return lit(datum.NewInt(v)) }
	cf := func(v float64) expr.Expr { return lit(datum.NewFloat(v)) }
	bin := func(op expr.Op, l, r expr.Expr) expr.Expr { return &expr.BinOp{Op: op, L: l, R: r} }
	neg := &expr.Case{Whens: []expr.When{{Cond: bin(expr.Lt, ints, ci(0)), Then: ci(-1)}}, Else: ci(1)}
	return []expr.Expr{
		bin(expr.Lt, ints, ci(17)),
		bin(expr.Ge, ints, ci(0)),
		bin(expr.Eq, ints, ci(3)),
		bin(expr.Ne, texts, lit(datum.NewText("name3"))),
		bin(expr.Gt, ci(17), ints), // flipped const side
		bin(expr.Le, floats, cf(8.5)),
		bin(expr.Lt, floats, ci(9)), // float col vs int const
		bin(expr.Ge, ints, cf(.5)),  // int col vs float const
		bin(expr.Lt, dates, lit(datum.NewDate(9200))),
		bin(expr.Lt, ints, floats), // col vs col
		&expr.Between{E: ints, Lo: ci(5), Hi: ci(30)},
		&expr.Between{E: dates, Lo: lit(datum.NewDate(9050)), Hi: lit(datum.NewDate(9250))},
		&expr.Between{E: floats, Lo: cf(1), Hi: cf(12)},
		&expr.In{E: ints, List: []datum.Datum{datum.NewInt(1), datum.NewInt(4), datum.NewInt(9)}},
		&expr.In{E: texts, List: []datum.Datum{datum.NewText("name1"), datum.NewText("name4")}, Negate: true},
		&expr.IsNull{E: floats},
		&expr.IsNull{E: ints, Negate: true},
		&expr.Not{E: bin(expr.Lt, ints, ci(10))},
		&expr.Neg{E: ints},
		bin(expr.And, bin(expr.Ge, ints, ci(0)), bin(expr.Lt, floats, cf(10))),
		bin(expr.Or, bin(expr.Lt, ints, ci(-5)), bin(expr.Gt, floats, cf(15))),
		bin(expr.Add, ints, ci(7)),
		bin(expr.Mul, floats, cf(3)),
		bin(expr.Sub, dates, ci(30)), // date - int days
		bin(expr.Div, floats, cf(4)),
		bin(expr.Add, ints, floats),               // int + float promotion
		bin(expr.Mul, floats, &expr.Neg{E: ints}), // interpreted operand
		bin(expr.Add, ints, neg),                  // interpreted CASE operand
		bin(expr.Div, cf(1), ints),                // division by zero on some rows
		&expr.Like{E: texts, Pattern: "name1%"},
		neg,
		bools,
		ci(42),
	}
}

// randomPredicate composes AND/OR/NOT over the zoo's boolean leaves, up to
// depth levels deep.
func randomPredicate(rng *rand.Rand, leaves []expr.Expr, depth int) expr.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	switch rng.Intn(3) {
	case 0:
		return &expr.Not{E: randomPredicate(rng, leaves, depth-1)}
	case 1:
		return &expr.BinOp{Op: expr.And, L: randomPredicate(rng, leaves, depth-1), R: randomPredicate(rng, leaves, depth-1)}
	}
	return &expr.BinOp{Op: expr.Or, L: randomPredicate(rng, leaves, depth-1), R: randomPredicate(rng, leaves, depth-1)}
}

// diffShapes is the zoo plus seeded random compositions of its boolean
// leaves.
func diffShapes() []expr.Expr {
	zoo := exprsUnderTest()
	var leaves []expr.Expr
	for _, e := range zoo {
		if expr.StaticType(e) == datum.Bool {
			leaves = append(leaves, e)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		zoo = append(zoo, randomPredicate(rng, leaves, 3))
	}
	return zoo
}

// diffSelections are the selections every shape runs under: all rows,
// every other row, and a single row.
func diffSelections(n int) [][]int {
	var half []int
	for i := 0; i < n; i += 2 {
		half = append(half, i)
	}
	return [][]int{nil, half, {n / 2}}
}

// livePositions lists the positions a selection keeps live.
func livePositions(n int, sel []int) []int {
	if sel != nil {
		return sel
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

func rowAt(cols [][]datum.Datum, i int) []datum.Datum {
	row := make([]datum.Datum, len(cols))
	for j := range cols {
		row[j] = cols[j][i]
	}
	return row
}

// TestValueKernelsMatchEval: EvalBatch over a shape bound through
// Cache.Value yields, at every live position, the Datum per-row Eval
// yields — type, NULL tag and float bits — and errors exactly when Eval
// errors on some live row.
func TestValueKernelsMatchEval(t *testing.T) {
	c := NewCache(0)
	const n = 257
	cols := testBatch(n, 11)
	compiled := 0
	for _, e := range diffShapes() {
		bound := c.Value(e)
		if k, ok := bound.(*expr.Kernel); ok && k.EvalVec != nil {
			compiled++
		}
		for _, sel := range diffSelections(n) {
			live := livePositions(n, sel)
			got := make([]datum.Datum, n)
			gerr := expr.EvalBatch(bound, cols, n, sel, got)
			var werr error
			want := make([]datum.Datum, n)
			for _, i := range live {
				if want[i], werr = e.Eval(rowAt(cols, i)); werr != nil {
					break
				}
			}
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s (live=%d): EvalBatch error %v, Eval error %v", e, len(live), gerr, werr)
			}
			if werr != nil {
				continue
			}
			for _, i := range live {
				if g, w := fmt.Sprintf("%#v", got[i]), fmt.Sprintf("%#v", want[i]); g != w {
					t.Fatalf("%s row %d: EvalBatch %s, Eval %s", e, i, g, w)
				}
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no shape compiled to a value program: the test compares the interpreter with itself")
	}
}

// TestPredicateKernelsMatchTruthy: FilterBatch over a shape bound through
// Cache.Predicate keeps exactly the live positions where TruthyResult
// holds, in order, and errors exactly when TruthyResult errors on some
// live row.
func TestPredicateKernelsMatchTruthy(t *testing.T) {
	c := NewCache(0)
	const n = 193
	cols := testBatch(n, 12)
	compiled := 0
	for _, e := range diffShapes() {
		bound := c.Predicate(e)
		if k, ok := bound.(*expr.Kernel); ok && k.Filter != nil {
			compiled++
		}
		for _, sel := range diffSelections(n) {
			live := livePositions(n, sel)
			got, gerr := expr.FilterBatch(bound, cols, n, sel, nil)
			var want []int
			var werr error
			for _, i := range live {
				var ok bool
				if ok, werr = expr.TruthyResult(e, rowAt(cols, i)); werr != nil {
					break
				}
				if ok {
					want = append(want, i)
				}
			}
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s (live=%d): FilterBatch error %v, TruthyResult error %v", e, len(live), gerr, werr)
			}
			if werr != nil {
				continue
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s (live=%d): FilterBatch kept %v, TruthyResult %v", e, len(live), got, want)
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no shape compiled to a filter: the test compares the interpreter with itself")
	}
}
