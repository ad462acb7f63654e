package expr

import "testing"

func TestParseAggKind(t *testing.T) {
	for name, want := range map[string]AggKind{"sum": AggSum, "AVG": AggAvg, "count": AggCount, "min": AggMin, "MAX": AggMax} {
		got, ok := ParseAggKind(name)
		if !ok || got != want {
			t.Errorf("ParseAggKind(%q) = %v %v", name, got, ok)
		}
	}
	if _, ok := ParseAggKind("median"); ok {
		t.Error("median is not supported")
	}
}

func TestAggregateString(t *testing.T) {
	a := &Aggregate{Kind: AggSum, Arg: col(2)}
	if a.String() != "SUM($2)" {
		t.Errorf("String = %s", a.String())
	}
	star := &Aggregate{Kind: AggCountStar}
	if star.String() != "COUNT(*)" {
		t.Errorf("String = %s", star.String())
	}
	if cols := a.Columns(nil); len(cols) != 1 || cols[0] != 2 {
		t.Errorf("Columns = %v", cols)
	}
	if cols := star.Columns(nil); len(cols) != 0 {
		t.Errorf("COUNT(*) Columns = %v", cols)
	}
}
