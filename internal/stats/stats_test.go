package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nodb/internal/datum"
)

func collectInts(vals []int64, nulls int) *ColumnStats {
	c := NewCollector(datum.Int, 1)
	for _, v := range vals {
		c.Add(datum.NewInt(v))
	}
	for i := 0; i < nulls; i++ {
		c.Add(datum.NewNull(datum.Int))
	}
	return c.Finalize()
}

func TestMinMaxCountNulls(t *testing.T) {
	s := collectInts([]int64{5, -3, 12, 0}, 2)
	if s.Count != 4 || s.Nulls != 2 {
		t.Errorf("count/nulls = %d/%d", s.Count, s.Nulls)
	}
	if s.Min.Int() != -3 || s.Max.Int() != 12 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if got := s.NullFraction(); math.Abs(got-2.0/6.0) > 1e-9 {
		t.Errorf("null fraction = %f", got)
	}
}

func TestDistinctExact(t *testing.T) {
	s := collectInts([]int64{1, 1, 2, 2, 3}, 0)
	if s.Distinct != 3 {
		t.Errorf("distinct = %f, want 3", s.Distinct)
	}
}

func TestDistinctOverflowEstimate(t *testing.T) {
	c := NewCollector(datum.Int, 1)
	n := DistinctLimit * 4
	for i := 0; i < n; i++ {
		c.Add(datum.NewInt(int64(i))) // all distinct
	}
	s := c.Finalize()
	// Everything is distinct; the estimate must be at least the limit and
	// roughly near n (sample is all-distinct => ratio 1 => estimate = n).
	if s.Distinct < float64(DistinctLimit) {
		t.Errorf("distinct estimate %f below limit", s.Distinct)
	}
	if s.Distinct < float64(n)/2 {
		t.Errorf("distinct estimate %f far below truth %d", s.Distinct, n)
	}
}

func TestSelectivityEq(t *testing.T) {
	s := collectInts([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0)
	sel := s.SelectivityEq(datum.NewInt(5))
	if math.Abs(sel-0.1) > 1e-9 {
		t.Errorf("eq selectivity = %f, want 0.1", sel)
	}
	if s.SelectivityEq(datum.NewInt(99)) != 0 {
		t.Error("out-of-range constant must be 0")
	}
	if s.SelectivityEq(datum.NewNull(datum.Int)) != 0 {
		t.Error("null constant must be 0")
	}
}

func TestSelectivityRangeUniform(t *testing.T) {
	// Uniform 0..9999: range [0, 2499] ≈ 25%.
	rng := rand.New(rand.NewSource(3))
	c := NewCollector(datum.Int, 1)
	for i := 0; i < 20000; i++ {
		c.Add(datum.NewInt(rng.Int63n(10000)))
	}
	s := c.Finalize()
	got := s.SelectivityRange(datum.NewNull(datum.Int), datum.NewInt(2499))
	if math.Abs(got-0.25) > 0.05 {
		t.Errorf("range selectivity = %f, want ~0.25", got)
	}
	full := s.SelectivityRange(datum.NewNull(datum.Int), datum.NewNull(datum.Int))
	if math.Abs(full-1.0) > 1e-9 {
		t.Errorf("open range selectivity = %f, want 1", full)
	}
	empty := s.SelectivityRange(datum.NewInt(20000), datum.NewNull(datum.Int))
	if empty > 0.01 {
		t.Errorf("impossible range selectivity = %f", empty)
	}
	inverted := s.SelectivityRange(datum.NewInt(5000), datum.NewInt(1000))
	if inverted != 0 {
		t.Errorf("inverted range must clamp to 0, got %f", inverted)
	}
}

func TestSelectivityRangeSkewed(t *testing.T) {
	// 90% of the mass at small values: the histogram must beat linear
	// interpolation. Values: 9000 × [0,100), 1000 × [0,10000).
	rng := rand.New(rand.NewSource(4))
	c := NewCollector(datum.Int, 1)
	for i := 0; i < 9000; i++ {
		c.Add(datum.NewInt(rng.Int63n(100)))
	}
	for i := 0; i < 1000; i++ {
		c.Add(datum.NewInt(rng.Int63n(10000)))
	}
	s := c.Finalize()
	got := s.SelectivityRange(datum.NewNull(datum.Int), datum.NewInt(100))
	if got < 0.7 {
		t.Errorf("skewed selectivity = %f, want > 0.7 (linear would say ~0.01)", got)
	}
}

func TestSelectivityWithNulls(t *testing.T) {
	s := collectInts([]int64{1, 2, 3, 4}, 4) // 50% nulls
	sel := s.SelectivityRange(datum.NewNull(datum.Int), datum.NewNull(datum.Int))
	if math.Abs(sel-0.5) > 1e-9 {
		t.Errorf("open range with 50%% nulls = %f, want 0.5", sel)
	}
}

func TestTextColumnFallback(t *testing.T) {
	c := NewCollector(datum.Text, 1)
	for _, s := range []string{"a", "b", "c", "a"} {
		c.Add(datum.NewText(s))
	}
	s := c.Finalize()
	if s.Distinct != 3 {
		t.Errorf("text distinct = %f", s.Distinct)
	}
	// Text has no histogram; cdf must not panic and eq still works.
	if sel := s.SelectivityEq(datum.NewText("b")); sel <= 0 {
		t.Errorf("text eq selectivity = %f", sel)
	}
}

func TestEmptyColumn(t *testing.T) {
	s := NewCollector(datum.Int, 1).Finalize()
	if s.SelectivityEq(datum.NewInt(1)) != 0 {
		t.Error("empty column eq must be 0")
	}
	if s.SelectivityRange(datum.NewNull(datum.Int), datum.NewNull(datum.Int)) != 0 {
		t.Error("empty column range must be 0")
	}
	if s.NullFraction() != 0 {
		t.Error("empty column null fraction must be 0")
	}
}

func TestSampleIsBounded(t *testing.T) {
	s := NewSynopsis(datum.Int)
	for i := 0; i < SampleSize*10; i++ {
		s.Add(uint64(i), datum.NewInt(int64(i)))
		if len(s.sample) >= 2*SampleSize {
			t.Fatalf("sample holds %d rows after %d", len(s.sample), i+1)
		}
	}
	if _, keys, _ := s.Sketches(); len(keys) != SampleSize {
		t.Errorf("sample size = %d, want %d", len(keys), SampleSize)
	}
	// A table of SampleSize rows or fewer keeps every row.
	small := NewSynopsis(datum.Float)
	for i := 0; i < SampleSize; i++ {
		small.Add(uint64(i), datum.NewFloat(float64(i)))
	}
	if _, keys, _ := small.Sketches(); len(keys) != SampleSize {
		t.Errorf("small table sample = %d rows, want all %d", len(keys), SampleSize)
	}
}

func TestDateHistogram(t *testing.T) {
	c := NewCollector(datum.Date, 1)
	base := datum.MustDate("1995-01-01").Int()
	for i := int64(0); i < 2000; i++ {
		c.Add(datum.NewDate(base + i%365))
	}
	s := c.Finalize()
	// One quarter of the year ≈ 25%.
	lo := datum.NewDate(base)
	hi := datum.NewDate(base + 90)
	got := s.SelectivityRange(lo, hi)
	if math.Abs(got-0.25) > 0.08 {
		t.Errorf("date range selectivity = %f, want ~0.25", got)
	}
}

func TestTableRegistry(t *testing.T) {
	tab := NewTable()
	if tab.Has(0) {
		t.Error("empty table has no stats")
	}
	s := collectInts([]int64{1, 2}, 0)
	tab.Set(3, s)
	tab.SetRowCount(2)
	if !tab.Has(3) || tab.Col(3) != s || tab.CoveredColumns() != 1 {
		t.Error("registry set/get broken")
	}
	if tab.Col(9) != nil {
		t.Error("missing column must be nil")
	}
	tab.Drop()
	if tab.Has(3) || tab.RowCount() != 0 {
		t.Error("Drop incomplete")
	}
}

func TestCdfMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewCollector(datum.Float, 1)
	for i := 0; i < 5000; i++ {
		c.Add(datum.NewFloat(rng.NormFloat64() * 100))
	}
	s := c.Finalize()
	prev := -1.0
	for x := -400.0; x <= 400; x += 7 {
		v := s.cdf(x)
		if v < prev-1e-12 {
			t.Fatalf("cdf not monotonic at %f: %f < %f", x, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("cdf out of range at %f: %f", x, v)
		}
		prev = v
	}
}

// feedParts feeds rows [0, n) of a seeded column to one synopsis per
// part, splitting at cuts, and returns the parts.
func feedParts(typ datum.Type, n int, cuts []int, value func(i int) datum.Datum) []*Synopsis {
	var parts []*Synopsis
	lo := 0
	for _, hi := range append(cuts, n) {
		p := NewSynopsis(typ)
		for i := lo; i < hi; i++ {
			p.Add(uint64(i)*37, value(i))
		}
		parts = append(parts, p)
		lo = hi
	}
	return parts
}

func TestSynopsisMerge(t *testing.T) {
	// One column split into partitions at arbitrary rows and merged in any
	// order folds to exactly the single pass's statistics: counts, NULLs,
	// exact min/max, distinct count and histogram bounds.
	rng := rand.New(rand.NewSource(5))
	vals := make([]datum.Datum, 20000)
	for i := range vals {
		switch {
		case i%13 == 0:
			vals[i] = datum.NewNull(datum.Int)
		case i < 10000:
			vals[i] = datum.NewInt(int64(rng.Intn(10000)))
		default:
			vals[i] = datum.NewInt(int64(rng.Intn(100)) * 1000)
		}
	}
	value := func(i int) datum.Datum { return vals[i] }
	want := feedParts(datum.Int, len(vals), nil, value)[0].Finalize()
	for _, cuts := range [][]int{{1}, {4321}, {5000, 10000, 15000}, {3, 999, 1024, 7777, 19999}} {
		parts := feedParts(datum.Int, len(vals), cuts, value)
		fwd, rev := NewSynopsis(datum.Int), NewSynopsis(datum.Int)
		for i := range parts {
			fwd.Merge(parts[i])
		}
		rev.Merge(parts[len(parts)-1])
		for i := len(parts) - 2; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		for name, s := range map[string]*Synopsis{"forward": fwd, "reverse": rev} {
			if got := s.Finalize(); !reflect.DeepEqual(got, want) {
				t.Errorf("cuts %v %s: merged %+v, single pass %+v", cuts, name, got, want)
			}
		}
	}
	if want.Min.Int() != 0 || want.Max.Int() != 99000 {
		t.Errorf("min/max = %v/%v, want the exact extremes", want.Min, want.Max)
	}
}

func TestSynopsisDistinct(t *testing.T) {
	// Exact up to the limit, at it, and in a union of two halves; an
	// estimate within a few percent beyond it.
	for _, n := range []int{1, 100, DistinctLimit, DistinctLimit + 1, 10000, 100000} {
		for _, typ := range []datum.Type{datum.Int, datum.Text, datum.Float} {
			value := func(i int) datum.Datum {
				switch typ {
				case datum.Text:
					return datum.NewText(fmt.Sprintf("v%d", i%n))
				case datum.Float:
					return datum.NewFloat(float64(i%n) / 8)
				}
				return datum.NewInt(int64(i % n))
			}
			parts := feedParts(typ, 2*n, []int{n}, value)
			parts[0].Merge(parts[1])
			cs := parts[0].Finalize()
			if cs.Count != int64(2*n) {
				t.Errorf("%v n=%d: count %d", typ, n, cs.Count)
			}
			switch {
			case n <= DistinctLimit && cs.Distinct != float64(n):
				t.Errorf("%v n=%d: distinct %v, want exact", typ, n, cs.Distinct)
			case n > DistinctLimit && math.Abs(cs.Distinct-float64(n)) > 0.05*float64(n):
				t.Errorf("%v n=%d: distinct estimate %v", typ, n, cs.Distinct)
			}
		}
	}
}

func TestSynopsisSketchesRoundTrip(t *testing.T) {
	// A checkpoint keeps the scalars and Sketches; restoring them folds to
	// the same statistics and keeps merging like the original.
	rng := rand.New(rand.NewSource(9))
	value := func(int) datum.Datum { return datum.NewFloat(rng.NormFloat64()) }
	parts := feedParts(datum.Float, 30000, []int{20000}, value)
	orig := parts[0]
	back := NewSynopsis(datum.Float)
	back.Count, back.Nulls, back.Min, back.Max = orig.Count, orig.Nulls, orig.Min, orig.Max
	back.AddSketches(orig.Sketches())
	if !reflect.DeepEqual(back.Finalize(), orig.Finalize()) {
		t.Fatalf("restored %+v, original %+v", back.Finalize(), orig.Finalize())
	}
	orig.Merge(parts[1])
	back.Merge(parts[1])
	if !reflect.DeepEqual(back.Finalize(), orig.Finalize()) {
		t.Errorf("after a merge: restored %+v, original %+v", back.Finalize(), orig.Finalize())
	}
}
