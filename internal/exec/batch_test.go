package exec

import (
	"math/rand"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// randomValues builds a Values operator of (int, float, text, date) rows
// with NULLs sprinkled in, for comparing pipelines across batch sizes.
func randomValues(rng *rand.Rand, n int) *Values {
	cols := []Col{
		{Name: "i", Type: datum.Int},
		{Name: "f", Type: datum.Float},
		{Name: "s", Type: datum.Text},
		{Name: "d", Type: datum.Date},
	}
	rows := make([]Row, n)
	for i := range rows {
		r := Row{
			datum.NewInt(int64(rng.Intn(100))),
			datum.NewFloat(float64(rng.Intn(1000)) / 8),
			datum.NewText(string(rune('a' + rng.Intn(26)))),
			datum.NewDate(int64(rng.Intn(3650))),
		}
		if rng.Intn(7) == 0 {
			r[rng.Intn(4)] = datum.NewNull(cols[rng.Intn(4)].Type)
		}
		rows[i] = r
	}
	return NewValues(cols, rows)
}

func drainRows(t *testing.T, op Operator) []Row {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameRows(t *testing.T, label string, a, b []Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Null() != y.Null() || (!x.Null() && datum.Compare(x, y) != 0) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, x, y)
			}
		}
	}
}

// resized returns a fresh Values over v's rows emitting batches of n rows.
func resized(v *Values, n int) *Values {
	out := NewValues(v.cols, v.rows)
	out.SetBatchSize(n)
	return out
}

// TestBatchPipelineMatchesRows runs the same filter+project+limit over
// one-row batches and over wider batches and requires identical output.
func TestBatchPipelineMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pred := &expr.BinOp{Op: expr.And,
		L: &expr.BinOp{Op: expr.Lt, L: &expr.ColRef{Index: 0, Type: datum.Int}, R: &expr.Const{D: datum.NewInt(70)}},
		R: &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 1, Type: datum.Float}, R: &expr.Const{D: datum.NewFloat(20)}},
	}
	projExprs := []expr.Expr{
		&expr.BinOp{Op: expr.Add, L: &expr.ColRef{Index: 0}, R: &expr.Const{D: datum.NewInt(5)}},
		&expr.ColRef{Index: 2},
		&expr.BinOp{Op: expr.Mul, L: &expr.ColRef{Index: 1}, R: &expr.ColRef{Index: 1}},
	}
	projCols := []Col{{Name: "i5", Type: datum.Int}, {Name: "s", Type: datum.Text}, {Name: "ff", Type: datum.Float}}
	pipeline := func(in Operator, limit int64) Operator {
		var root Operator = NewProject(NewFilter(in, pred), projExprs, projCols)
		if limit >= 0 {
			root = NewLimit(root, limit)
		}
		return root
	}
	for _, limit := range []int64{-1, 0, 7, 1000} {
		vals := randomValues(rng, 500)
		want := drainRows(t, pipeline(resized(vals, 1), limit))
		for _, size := range []int{3, 64, DefaultBatchSize, 2048} {
			got := drainRows(t, pipeline(resized(vals, size), limit))
			sameRows(t, "limit/size", want, got)
		}
	}
}

// TestBatchHashAggMatchesRows compares hash aggregation over one-row
// batches against wider batches for grouped and global aggregates.
func TestBatchHashAggMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groupBy := []expr.Expr{&expr.ColRef{Index: 2, Type: datum.Text}}
	aggs := []*expr.Aggregate{
		{Kind: expr.AggCountStar},
		{Kind: expr.AggSum, Arg: &expr.ColRef{Index: 0}},
		{Kind: expr.AggMin, Arg: &expr.ColRef{Index: 1}},
	}
	cols := []Col{{Name: "g"}, {Name: "n"}, {Name: "s"}, {Name: "m"}}
	for _, grouped := range []bool{true, false} {
		gb := groupBy
		outCols := cols
		if !grouped {
			gb = nil
			outCols = cols[1:]
		}
		vals := randomValues(rng, 400)
		one := NewHashAgg(resized(vals, 1), gb, aggs, outCols)
		one.SetBatchSize(1)
		want := drainRows(t, one)
		for _, size := range []int{32, DefaultBatchSize} {
			got := drainRows(t, NewHashAgg(resized(vals, size), gb, aggs, outCols))
			sameRows(t, "hashagg", want, got)
		}
	}
}

// TestBatchLimitAcrossBatches checks limits landing inside, between, and
// beyond batches, including over a selection vector.
func TestBatchLimitAcrossBatches(t *testing.T) {
	vals := randomValues(rand.New(rand.NewSource(5)), 100)
	pred := &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 0}, R: &expr.Const{D: datum.NewInt(30)}}
	want := drainRows(t, NewLimit(NewFilter(resized(vals, 1), pred), 13))
	got := drainRows(t, NewLimit(NewFilter(resized(vals, 8), pred), 13))
	sameRows(t, "limit-sel", want, got)
}
