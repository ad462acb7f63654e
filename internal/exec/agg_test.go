package exec

import (
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// accumFor returns a one-group accumulator of the given kind.
func accumFor(kind expr.AggKind, distinct bool) *accum {
	accs := newAccums([]*expr.Aggregate{{Kind: kind, Distinct: distinct}})
	accs[0].resize(1)
	return &accs[0]
}

func TestAggCount(t *testing.T) {
	s := accumFor(expr.AggCount, false)
	s.add(0, datum.NewInt(1))
	s.add(0, datum.NewNull(datum.Int)) // ignored
	s.add(0, datum.NewInt(2))
	if got := s.result(0).Int(); got != 2 {
		t.Errorf("COUNT = %d, want 2", got)
	}
	star := accumFor(expr.AggCountStar, false)
	star.add(0, datum.NewNull(datum.Int)) // counted
	star.add(0, datum.NewInt(5))
	if got := star.result(0).Int(); got != 2 {
		t.Errorf("COUNT(*) = %d, want 2", got)
	}
	d := accumFor(expr.AggCount, true)
	for _, v := range []datum.Datum{datum.NewInt(1), datum.NewFloat(1), datum.NewText("1"), datum.NewInt(1)} {
		d.add(0, v)
	}
	if got := d.result(0).Int(); got != 3 {
		t.Errorf("COUNT(DISTINCT) over 1, 1.0, '1', 1 = %d, want 3 (identity is tag plus text)", got)
	}
}

func TestAggSumAvg(t *testing.T) {
	s := accumFor(expr.AggSum, false)
	for i := int64(1); i <= 4; i++ {
		s.add(0, datum.NewInt(i))
	}
	if got := s.result(0); got.T != datum.Int || got.Int() != 10 {
		t.Errorf("SUM ints = %v", got)
	}
	sf := accumFor(expr.AggSum, false)
	sf.add(0, datum.NewInt(1))
	sf.add(0, datum.NewFloat(0.5))
	if got := sf.result(0); got.T != datum.Float || got.Float() != 1.5 {
		t.Errorf("SUM mixed = %v", got)
	}
	a := accumFor(expr.AggAvg, false)
	a.add(0, datum.NewInt(2))
	a.add(0, datum.NewInt(4))
	if got := a.result(0).Float(); got != 3 {
		t.Errorf("AVG = %v", got)
	}
}

func TestAggMinMax(t *testing.T) {
	mn, mx := accumFor(expr.AggMin, false), accumFor(expr.AggMax, false)
	for _, v := range []int64{5, -2, 9, 0} {
		mn.add(0, datum.NewInt(v))
		mx.add(0, datum.NewInt(v))
	}
	if mn.result(0).Int() != -2 {
		t.Errorf("MIN = %v", mn.result(0))
	}
	if mx.result(0).Int() != 9 {
		t.Errorf("MAX = %v", mx.result(0))
	}
	// Text min/max.
	tm := accumFor(expr.AggMin, false)
	tm.add(0, datum.NewText("pear"))
	tm.add(0, datum.NewText("apple"))
	if tm.result(0).Text() != "apple" {
		t.Errorf("MIN text = %v", tm.result(0))
	}
}

func TestAggEmptyInput(t *testing.T) {
	if got := accumFor(expr.AggSum, false).result(0); !got.Null() || got.T != datum.Float {
		t.Errorf("SUM of empty = %#v, want a Float-typed NULL", got)
	}
	if got := accumFor(expr.AggAvg, false).result(0); !got.Null() || got.T != datum.Float {
		t.Errorf("AVG of empty = %#v, want a Float-typed NULL", got)
	}
	if got := accumFor(expr.AggMin, false).result(0); !got.Null() || got.T != datum.Unknown {
		t.Errorf("MIN of empty = %#v, want an untyped NULL", got)
	}
	if accumFor(expr.AggCount, false).result(0).Int() != 0 {
		t.Error("COUNT of empty must be 0")
	}
}
