package expr

import (
	"math/rand"
	"testing"

	"nodb/internal/datum"
)

// randomBatch builds column-major test data: int, float, text, date, bool
// columns with NULLs mixed in.
func randomBatch(rng *rand.Rand, n int) [][]datum.Datum {
	cols := make([][]datum.Datum, 5)
	for j := range cols {
		cols[j] = make([]datum.Datum, n)
	}
	for i := 0; i < n; i++ {
		cols[0][i] = datum.NewInt(int64(rng.Intn(50) - 10))
		cols[1][i] = datum.NewFloat(float64(rng.Intn(400))/16 - 5)
		cols[2][i] = datum.NewText(string(rune('a' + rng.Intn(5))))
		cols[3][i] = datum.NewDate(int64(10000 + rng.Intn(400)))
		cols[4][i] = datum.NewBool(rng.Intn(2) == 0)
		if rng.Intn(6) == 0 {
			j := rng.Intn(5)
			t := []datum.Type{datum.Int, datum.Float, datum.Text, datum.Date, datum.Bool}[j]
			cols[j][i] = datum.NewNull(t)
		}
	}
	return cols
}

// TestFilterBatchInPlace pins the documented aliasing guarantee: narrowing
// a selection into its own storage is safe.
func TestFilterBatchInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 100
	cols := randomBatch(rng, n)
	e1 := &BinOp{Op: Ge, L: &ColRef{Index: 0}, R: &Const{D: datum.NewInt(0)}}
	e2 := &BinOp{Op: Lt, L: &ColRef{Index: 0}, R: &Const{D: datum.NewInt(20)}}
	sel, err := FilterBatch(e1, cols, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]int(nil), sel...)
	refOut, err := FilterBatch(e2, cols, n, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	inPlace, err := FilterBatch(e2, cols, n, sel, sel[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(inPlace) != len(refOut) {
		t.Fatalf("in-place narrowing lost rows: %d vs %d", len(inPlace), len(refOut))
	}
	for i := range refOut {
		if inPlace[i] != refOut[i] {
			t.Fatalf("in-place narrowing diverged at %d: %d vs %d", i, inPlace[i], refOut[i])
		}
	}
}

// TestLogicBatchShortCircuit pins that the right side of AND/OR is not
// evaluated where the left short-circuits — data-dependent errors guarded
// by the left operand must not fire, exactly like scalar Eval.
func TestLogicBatchShortCircuit(t *testing.T) {
	n := 4
	cols := [][]datum.Datum{{
		datum.NewInt(0), datum.NewInt(2), datum.NewInt(0), datum.NewInt(5),
	}}
	div := &BinOp{Op: Gt,
		L: &BinOp{Op: Div, L: &Const{D: datum.NewFloat(10)}, R: &ColRef{Index: 0}},
		R: &Const{D: datum.NewFloat(1)}}
	guardAnd := &BinOp{Op: And,
		L: &BinOp{Op: Ne, L: &ColRef{Index: 0}, R: &Const{D: datum.NewInt(0)}},
		R: div}
	out := make([]datum.Datum, n)
	if err := EvalBatch(guardAnd, cols, n, nil, out); err != nil {
		t.Fatalf("guarded AND must not divide by zero: %v", err)
	}
	guardOr := &BinOp{Op: Or,
		L: &BinOp{Op: Eq, L: &ColRef{Index: 0}, R: &Const{D: datum.NewInt(0)}},
		R: div}
	if err := EvalBatch(guardOr, cols, n, nil, out); err != nil {
		t.Fatalf("guarded OR must not divide by zero: %v", err)
	}
	if sel, err := FilterBatch(guardAnd, cols, n, nil, nil); err != nil || len(sel) != 2 {
		t.Fatalf("guarded AND filter: sel=%v err=%v", sel, err)
	}
}
