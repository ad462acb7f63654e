package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// testBatch builds a randomized column table: col 0 Int, 1 Float, 2 Date,
// 3 Text, 4 Bool, each with NULLs sprinkled in, col 5 Int NULL-free, and a
// second Date (6) and Float (7) column with NULLs, drawn from the ranges of
// 2 and 1 so column-vs-column comparisons see all three orderings.
func testBatch(n int, seed int64) [][]datum.Datum {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]datum.Datum, 8)
	for j := range cols {
		cols[j] = make([]datum.Datum, n)
	}
	for i := 0; i < n; i++ {
		null := func() bool { return rng.Intn(7) == 0 }
		if null() {
			cols[0][i] = datum.NewNull(datum.Int)
		} else {
			cols[0][i] = datum.NewInt(int64(rng.Intn(40) - 20))
		}
		if null() {
			cols[1][i] = datum.NewNull(datum.Float)
		} else {
			cols[1][i] = datum.NewFloat(float64(rng.Intn(400))/8 - 20)
		}
		if null() {
			cols[2][i] = datum.NewNull(datum.Date)
		} else {
			cols[2][i] = datum.NewDate(int64(9000 + rng.Intn(300)))
		}
		if null() {
			cols[3][i] = datum.NewNull(datum.Text)
		} else {
			cols[3][i] = datum.NewText(fmt.Sprintf("name%d", rng.Intn(12)))
		}
		if null() {
			cols[4][i] = datum.NewNull(datum.Bool)
		} else {
			cols[4][i] = datum.NewBool(rng.Intn(2) == 1)
		}
		cols[5][i] = datum.NewInt(int64(rng.Intn(100)))
		if null() {
			cols[6][i] = datum.NewNull(datum.Date)
		} else {
			cols[6][i] = datum.NewDate(int64(9000 + rng.Intn(300)))
		}
		if null() {
			cols[7][i] = datum.NewNull(datum.Float)
		} else {
			cols[7][i] = datum.NewFloat(float64(rng.Intn(400))/8 - 20)
		}
	}
	return cols
}

func col(i int, t datum.Type) *expr.ColRef { return &expr.ColRef{Index: i, Type: t} }
func lit(d datum.Datum) *expr.Const        { return &expr.Const{D: d} }

// filterPredicates is the shape corpus the compiled filters must agree on.
func filterPredicates() []expr.Expr {
	ints := col(0, datum.Int)
	floats := col(1, datum.Float)
	dates := col(2, datum.Date)
	texts := col(3, datum.Text)
	dense := col(5, datum.Int)
	dates2 := col(6, datum.Date)
	floats2 := col(7, datum.Float)
	return []expr.Expr{
		// Column vs column: same-typed fast paths in both operand orders,
		// NULLs on either side, and mixed tags deferring to datum.Compare.
		&expr.BinOp{Op: expr.Lt, L: ints, R: dense},
		&expr.BinOp{Op: expr.Ge, L: dense, R: ints},
		&expr.BinOp{Op: expr.Lt, L: dates, R: dates2},
		&expr.BinOp{Op: expr.Gt, L: dates2, R: dates},
		&expr.BinOp{Op: expr.Eq, L: dates, R: dates2},
		&expr.BinOp{Op: expr.Le, L: floats, R: floats2},
		&expr.BinOp{Op: expr.Ne, L: floats2, R: floats},
		&expr.BinOp{Op: expr.Ge, L: ints, R: floats}, // Int vs Float
		&expr.BinOp{Op: expr.Lt, L: dates, R: dense}, // Date vs Int: orders by type id
		&expr.BinOp{Op: expr.Eq, L: texts, R: texts}, // no fast path
		&expr.BinOp{Op: expr.And,
			L: &expr.BinOp{Op: expr.Lt, L: dates, R: dates2},
			R: &expr.BinOp{Op: expr.Gt, L: dates2, R: lit(datum.NewDate(9100))}},
		&expr.BinOp{Op: expr.Lt, L: ints, R: lit(datum.NewInt(3))},
		&expr.BinOp{Op: expr.Ge, L: lit(datum.NewInt(3)), R: ints}, // flipped
		&expr.BinOp{Op: expr.Eq, L: ints, R: lit(datum.NewFloat(2))},
		&expr.BinOp{Op: expr.Ne, L: floats, R: lit(datum.NewFloat(1.5))},
		&expr.BinOp{Op: expr.Le, L: floats, R: lit(datum.NewInt(4))},
		&expr.BinOp{Op: expr.Gt, L: dates, R: lit(datum.NewDate(9100))},
		&expr.BinOp{Op: expr.Eq, L: texts, R: lit(datum.NewText("name3"))},
		&expr.BinOp{Op: expr.Ne, L: texts, R: lit(datum.NewText("name3"))},
		&expr.BinOp{Op: expr.Lt, L: texts, R: lit(datum.NewText("name5"))},
		&expr.BinOp{Op: expr.Eq, L: ints, R: lit(datum.NewNull(datum.Int))}, // NULL comparand
		&expr.Between{E: ints, Lo: lit(datum.NewInt(-3)), Hi: lit(datum.NewInt(9))},
		&expr.Between{E: dates, Lo: lit(datum.NewDate(9050)), Hi: lit(datum.NewDate(9150))},
		&expr.Between{E: floats, Lo: lit(datum.NewFloat(-1)), Hi: lit(datum.NewFloat(20))},
		&expr.Between{E: ints, Lo: lit(datum.NewFloat(-2.5)), Hi: lit(datum.NewInt(5))}, // mixed bounds
		&expr.In{E: ints, List: []datum.Datum{datum.NewInt(1), datum.NewInt(4), datum.NewInt(-7)}},
		&expr.In{E: ints, List: []datum.Datum{datum.NewInt(1), datum.NewInt(4)}, Negate: true},
		&expr.In{E: ints, List: []datum.Datum{datum.NewFloat(2), datum.NewInt(3)}}, // mixed list
		&expr.In{E: texts, List: []datum.Datum{datum.NewText("name1"), datum.NewText("name9")}},
		&expr.In{E: dates, List: []datum.Datum{datum.NewDate(9001), datum.NewDate(9002)}},
		&expr.IsNull{E: ints},
		&expr.IsNull{E: texts, Negate: true},
		&expr.BinOp{Op: expr.And,
			L: &expr.BinOp{Op: expr.Gt, L: ints, R: lit(datum.NewInt(-10))},
			R: &expr.BinOp{Op: expr.Lt, L: floats, R: lit(datum.NewFloat(15))}},
		&expr.BinOp{Op: expr.Or,
			L: &expr.BinOp{Op: expr.Eq, L: ints, R: lit(datum.NewInt(2))},
			R: &expr.BinOp{Op: expr.Ge, L: dense, R: lit(datum.NewInt(90))}},
		&expr.BinOp{Op: expr.Or,
			L: &expr.BinOp{Op: expr.Lt, L: ints, R: lit(datum.NewInt(-15))},
			R: &expr.BinOp{Op: expr.And,
				L: &expr.IsNull{E: floats, Negate: true},
				R: &expr.Between{E: dense, Lo: lit(datum.NewInt(10)), Hi: lit(datum.NewInt(60))}}},
	}
}

// TestPredicateEquivalence: for every supported shape, the compiled filter
// must select exactly the rows the interpreted tree does — with and
// without an input selection vector.
func TestPredicateEquivalence(t *testing.T) {
	c := NewCache(0)
	cols := testBatch(512, 1)
	n := 512
	half := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		half = append(half, i)
	}
	for _, pred := range filterPredicates() {
		wrapped := c.Predicate(pred)
		k, ok := wrapped.(*expr.Kernel)
		if !ok {
			t.Errorf("%s: shape did not compile", pred)
			continue
		}
		for _, sel := range [][]int{nil, half} {
			want, err := expr.FilterBatch(pred, cols, n, sel, nil)
			if err != nil {
				t.Fatalf("%s: interpreted: %v", pred, err)
			}
			got, err := expr.FilterBatch(k, cols, n, sel, nil)
			if err != nil {
				t.Fatalf("%s: compiled: %v", pred, err)
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (sel=%v): compiled selection differs\nwant %v\ngot  %v",
					pred, sel != nil, want, got)
			}
		}
	}
}

// TestPredicateInPlaceNarrowing: compiled filters must honor FilterBatch's
// in-place contract — writing survivors into the input selection's own
// storage.
func TestPredicateInPlaceNarrowing(t *testing.T) {
	c := NewCache(0)
	cols := testBatch(256, 2)
	pred := c.Predicate(&expr.BinOp{Op: expr.And,
		L: &expr.BinOp{Op: expr.Gt, L: col(0, datum.Int), R: lit(datum.NewInt(-5))},
		R: &expr.BinOp{Op: expr.Lt, L: col(1, datum.Float), R: lit(datum.NewFloat(10))}})
	sel := make([]int, 0, 256)
	for i := 0; i < 256; i++ {
		sel = append(sel, i)
	}
	want, err := expr.FilterBatch(pred, cols, 256, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := expr.FilterBatch(pred, cols, 256, sel, sel[:0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append([]int(nil), got...), want) {
		t.Errorf("in-place narrowing differs: want %v got %v", want, got)
	}
}

// evalExprs is the value-shape corpus: arithmetic over columns, literals
// and nested arithmetic, every operand-type pairing expr's arithmetic
// distinguishes, and fallback operands.
func evalExprs() []expr.Expr {
	ints := col(0, datum.Int)
	floats := col(1, datum.Float)
	dates := col(2, datum.Date)
	bools := col(4, datum.Bool)
	dense := col(5, datum.Int)
	dates2 := col(6, datum.Date)
	floats2 := col(7, datum.Float)
	bin := func(op expr.Op, l, r expr.Expr) expr.Expr { return &expr.BinOp{Op: op, L: l, R: r} }
	return []expr.Expr{
		lit(datum.NewInt(42)),
		ints,
		floats,
		bin(expr.Add, ints, lit(datum.NewInt(7))),
		bin(expr.Sub, ints, lit(datum.NewInt(3))),
		bin(expr.Mul, ints, lit(datum.NewInt(-2))),
		bin(expr.Div, ints, lit(datum.NewInt(3))), // Int / Int computes in float64
		bin(expr.Mul, floats, lit(datum.NewFloat(2.5))),
		bin(expr.Div, floats, lit(datum.NewFloat(4))),
		bin(expr.Add, floats, lit(datum.NewInt(1))),
		bin(expr.Add, ints, lit(datum.NewFloat(0.5))),
		bin(expr.Sub, lit(datum.NewInt(1)), ints),
		bin(expr.Sub, lit(datum.NewFloat(1)), floats),
		bin(expr.Add, dates, lit(datum.NewInt(30))),
		bin(expr.Sub, dates, lit(datum.NewInt(90))),
		bin(expr.Add, dates, dense),                // Date + Int column: Date
		bin(expr.Sub, dates, dates2),               // Date - Date: Float
		bin(expr.Add, lit(datum.NewInt(1)), dates), // Int + Date: Float
		bin(expr.Add, bools, ints),                 // Bool operand: Float
		bin(expr.Add, ints, dense),
		bin(expr.Mul, floats, floats),
		bin(expr.Add, ints, floats),
		// Nested: TPC-H Q1's charge, with NULLs on every operand.
		bin(expr.Mul, bin(expr.Mul, floats, bin(expr.Sub, lit(datum.NewInt(1)), floats2)),
			bin(expr.Add, lit(datum.NewInt(1)), floats2)),
		bin(expr.Div, bin(expr.Add, ints, dense), lit(datum.NewInt(2))),
		// Fallback operands: CASE (with and without ELSE), a Text column.
		bin(expr.Mul, &expr.Case{Whens: []expr.When{{Cond: bin(expr.Gt, ints, lit(datum.NewInt(0))), Then: dense}},
			Else: lit(datum.NewInt(0))}, lit(datum.NewInt(3))),
		bin(expr.Add, &expr.Case{Whens: []expr.When{{Cond: bools, Then: floats}}}, floats2),
		bin(expr.Mul, &expr.Neg{E: ints}, lit(datum.NewFloat(1.5))),
		bin(expr.Add, bin(expr.Add, ints, lit(datum.NewInt(1))), &expr.Neg{E: dense}),
	}
}

// TestEvalDeclinesUnprofitableBindings: bindings without a typed form —
// NULL or non-numeric literals, a Text operand — decline at instantiation
// so the row interpreter serves them.
func TestEvalDeclinesUnprofitableBindings(t *testing.T) {
	c := NewCache(0)
	ints := col(0, datum.Int)
	for _, e := range []expr.Expr{
		&expr.BinOp{Op: expr.Add, L: ints, R: lit(datum.NewNull(datum.Int))},
		&expr.BinOp{Op: expr.Add, L: ints, R: lit(datum.NewText("x"))},
		&expr.BinOp{Op: expr.Add, L: col(3, datum.Text), R: lit(datum.NewInt(1))},
		&expr.Case{Whens: []expr.When{{Cond: ints, Then: ints}}},
	} {
		if _, ok := c.Value(e).(*expr.Kernel); ok {
			t.Errorf("%s: expected the binding to decline", e)
		}
	}
}

// TestEvalEquivalence: typed value programs must reproduce expr.EvalBatch
// byte for byte at every live position — values, tags and NULL tags.
func TestEvalEquivalence(t *testing.T) {
	c := NewCache(0)
	cols := testBatch(512, 3)
	n := 512
	third := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		third = append(third, i)
	}
	for _, e := range evalExprs() {
		k, ok := c.Value(e).(*expr.Kernel)
		if !ok {
			t.Errorf("%s: shape did not compile", e)
			continue
		}
		for _, sel := range [][]int{nil, third} {
			want := make([]datum.Datum, n)
			werr := expr.EvalBatch(e, cols, n, sel, want)
			v, ok, err := k.EvalVec(cols, n, sel)
			if (werr == nil) != (err == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("%s: error mismatch: interpreted %v, compiled %v", e, werr, err)
			}
			if err != nil {
				continue
			}
			if !ok {
				t.Fatalf("%s: compiled program refused a batch of its own types", e)
			}
			got := make([]datum.Datum, n)
			v.Materialize(got, n, sel)
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					t.Errorf("%s (sel=%v) row %d: got %#v want %#v", e, sel != nil, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestValueTagMismatchFallsBack: a batch whose values do not carry the
// program's static types (an Int in a Float column) is refused, and
// EvalBatch over the kernel node then matches the interpreted tree.
func TestValueTagMismatchFallsBack(t *testing.T) {
	c := NewCache(0)
	cols := testBatch(64, 8)
	cols[1][5] = datum.NewInt(3)
	e := &expr.BinOp{Op: expr.Mul, L: col(1, datum.Float), R: lit(datum.NewFloat(2))}
	k, ok := c.Value(e).(*expr.Kernel)
	if !ok {
		t.Fatal("shape did not compile")
	}
	if _, ok, err := k.EvalVec(cols, 64, nil); ok || err != nil {
		t.Fatalf("mistyped batch: ok=%v err=%v, want a refusal", ok, err)
	}
	want, got := make([]datum.Datum, 64), make([]datum.Datum, 64)
	if err := expr.EvalBatch(e, cols, 64, nil, want); err != nil {
		t.Fatal(err)
	}
	if err := expr.EvalBatch(k, cols, 64, nil, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback after a refused batch differs from the interpreted tree")
	}
}

// TestDivisionByZeroMatches: compiled programs surface the same error the
// interpreted tree does, and only when a live row with non-NULL operands
// reaches it.
func TestDivisionByZeroMatches(t *testing.T) {
	c := NewCache(0)
	cols := testBatch(64, 4)
	for _, e := range []expr.Expr{
		&expr.BinOp{Op: expr.Div, L: col(1, datum.Float), R: lit(datum.NewFloat(0))},
		&expr.BinOp{Op: expr.Div, L: col(5, datum.Int), R: col(0, datum.Int)},
	} {
		k, ok := c.Value(e).(*expr.Kernel)
		if !ok {
			t.Fatalf("%s: div shape did not compile", e)
		}
		want := expr.EvalBatch(e, cols, 64, nil, make([]datum.Datum, 64))
		_, _, got := k.EvalVec(cols, 64, nil)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Errorf("%s: error mismatch: interpreted %v, compiled %v", e, want, got)
		}
	}
	// Rows outside the selection never divide.
	e := &expr.BinOp{Op: expr.Div, L: col(5, datum.Int), R: col(0, datum.Int)}
	k := c.Value(e).(*expr.Kernel)
	var safe []int
	for i := 0; i < 64; i++ {
		if d := cols[0][i]; !d.Null() && d.Int() != 0 {
			safe = append(safe, i)
		}
	}
	if _, ok, err := k.EvalVec(cols, 64, safe); !ok || err != nil {
		t.Errorf("division over non-zero live divisors: ok=%v err=%v", ok, err)
	}
}

// TestProgramSharing: shapes differing only in literal values share one
// cached program; different shapes do not.
func TestProgramSharing(t *testing.T) {
	c := NewCache(0)
	a := c.Predicate(&expr.BinOp{Op: expr.Lt, L: col(0, datum.Int), R: lit(datum.NewInt(3))})
	b := c.Predicate(&expr.BinOp{Op: expr.Lt, L: col(0, datum.Int), R: lit(datum.NewInt(99))})
	if _, ok := a.(*expr.Kernel); !ok {
		t.Fatal("first shape did not compile")
	}
	if _, ok := b.(*expr.Kernel); !ok {
		t.Fatal("second shape did not compile")
	}
	size, hits, misses := c.Stats()
	if size != 1 || hits != 1 || misses != 1 {
		t.Errorf("literal-normalized shapes must share: size=%d hits=%d misses=%d", size, hits, misses)
	}
	c.Predicate(&expr.BinOp{Op: expr.Gt, L: col(0, datum.Int), R: lit(datum.NewInt(3))})
	if size, _, _ := c.Stats(); size != 2 {
		t.Errorf("different op must compile a second program: size=%d", size)
	}

	// Re-binding a slot to a different TYPE re-specializes from the same
	// program: the Int shape bound with a Float literal still matches the
	// interpreted tree.
	cols := testBatch(128, 5)
	f := c.Predicate(&expr.BinOp{Op: expr.Lt, L: col(0, datum.Int), R: lit(datum.NewFloat(2.5))})
	want, _ := expr.FilterBatch(&expr.BinOp{Op: expr.Lt, L: col(0, datum.Int), R: lit(datum.NewFloat(2.5))},
		cols, 128, nil, nil)
	got, err := expr.FilterBatch(f, cols, 128, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("type-changing rebind differs: want %v got %v", want, got)
	}
}

// TestLayoutFallback: a compiled kernel handed a narrower batch than it
// was compiled for must decline, and FilterBatch must fall back to the
// interpreted tree instead of panicking.
func TestLayoutFallback(t *testing.T) {
	c := NewCache(0)
	pred := c.Predicate(&expr.BinOp{Op: expr.Lt, L: col(5, datum.Int), R: lit(datum.NewInt(50))})
	if _, ok := pred.(*expr.Kernel); !ok {
		t.Fatal("shape did not compile")
	}
	// Col 5 out of range: both the compiled kernel and the interpreted
	// fallback must surface the out-of-range error (not panic).
	narrow := testBatch(32, 6)[:3]
	want, werr := expr.FilterBatch(&expr.BinOp{Op: expr.Lt, L: col(5, datum.Int), R: lit(datum.NewInt(50))},
		narrow, 32, nil, nil)
	got, gerr := expr.FilterBatch(pred, narrow, 32, nil, nil)
	if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(want, got) {
		t.Errorf("out-of-range fallback mismatch: want (%v,%v) got (%v,%v)", want, werr, got, gerr)
	}
}
