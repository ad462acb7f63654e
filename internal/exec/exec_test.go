package exec

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

func intCols(names ...string) []Col {
	cols := make([]Col, len(names))
	for i, n := range names {
		cols[i] = Col{Name: n, Type: datum.Int}
	}
	return cols
}

func intRows(vals ...[]int64) []Row {
	rows := make([]Row, len(vals))
	for i, vs := range vals {
		r := make(Row, len(vs))
		for j, v := range vs {
			r[j] = datum.NewInt(v)
		}
		rows[i] = r
	}
	return rows
}

// batchSizes are the batch heights the operator tests run at: one-row
// batches, a size that splits runs of equal keys across batches, and the
// default.
var batchSizes = []int{1, 7, DefaultBatchSize}

// sizedValues is a Values operator emitting batches of n rows.
func sizedValues(cols []Col, rows []Row, n int) *Values {
	v := NewValues(cols, rows)
	v.SetBatchSize(n)
	return v
}

func col(i int) *expr.ColRef  { return &expr.ColRef{Index: i} }
func lit(v int64) *expr.Const { return &expr.Const{D: datum.NewInt(v)} }

func TestValuesAndDrain(t *testing.T) {
	v := NewValues(intCols("a"), intRows([]int64{1}, []int64{2}))
	rows, err := Drain(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
	// Drain re-opens, so a second run works.
	rows2, err := Drain(v)
	if err != nil || len(rows2) != 2 {
		t.Error("second drain failed")
	}
}

func TestFilter(t *testing.T) {
	v := NewValues(intCols("a"), intRows([]int64{1}, []int64{5}, []int64{3}, []int64{7}))
	f := NewFilter(v, &expr.BinOp{Op: expr.Gt, L: col(0), R: lit(3)})
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 5 || rows[1][0].Int() != 7 {
		t.Errorf("filter rows = %v", rows)
	}
}

func TestFilterDropsNullPredicate(t *testing.T) {
	rows := []Row{
		{datum.NewNull(datum.Int)},
		{datum.NewInt(10)},
	}
	v := NewValues(intCols("a"), rows)
	f := NewFilter(v, &expr.BinOp{Op: expr.Gt, L: col(0), R: lit(3)})
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 10 {
		t.Errorf("NULL predicate must drop the row: %v", got)
	}
}

func TestProject(t *testing.T) {
	v := NewValues(intCols("a", "b"), intRows([]int64{3, 4}))
	p := NewProject(v,
		[]expr.Expr{&expr.BinOp{Op: expr.Add, L: col(0), R: col(1)}, col(0)},
		[]Col{{Name: "sum", Type: datum.Int}, {Name: "a", Type: datum.Int}})
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 7 || rows[0][1].Int() != 3 {
		t.Errorf("project = %v", rows)
	}
	if p.Columns()[0].Name != "sum" {
		t.Error("schema wrong")
	}
}

func TestProjectArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched exprs/cols must panic")
		}
	}()
	NewProject(NewValues(nil, nil), []expr.Expr{col(0)}, nil)
}

func TestLimit(t *testing.T) {
	v := NewValues(intCols("a"), intRows([]int64{1}, []int64{2}, []int64{3}))
	rows, err := Drain(NewLimit(v, 2))
	if err != nil || len(rows) != 2 {
		t.Errorf("limit rows = %v err %v", rows, err)
	}
	rows, err = Drain(NewLimit(v, 0))
	if err != nil || len(rows) != 0 {
		t.Errorf("limit 0 = %v", rows)
	}
	rows, err = Drain(NewLimit(v, -1))
	if err != nil || len(rows) != 3 {
		t.Errorf("no limit = %v", rows)
	}
}

func TestSortAscDesc(t *testing.T) {
	for _, size := range batchSizes {
		v := sizedValues(intCols("a", "b"), intRows(
			[]int64{3, 1}, []int64{1, 2}, []int64{2, 3}, []int64{1, 1}), size)
		s := NewSort(v, []SortKey{{E: col(0)}, {E: col(1), Desc: true}})
		s.SetBatchSize(size)
		rows, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
		for i, w := range want {
			if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
				t.Fatalf("size %d: sort order wrong at %d: %v", size, i, rows)
			}
		}
	}
}

// TestSortAgainstStdlib sorts 500 rows over 100 distinct keys, so runs of
// equal keys cross batch boundaries at every size; the second column is
// the input position, which a stable sort keeps ascending within a run.
func TestSortAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows []Row
	var want [][2]int64
	for i := 0; i < 500; i++ {
		v := rng.Int63n(100)
		rows = append(rows, Row{datum.NewInt(v), datum.NewInt(int64(i))})
		want = append(want, [2]int64{v, int64(i)})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	for _, size := range batchSizes {
		s := NewSort(sizedValues(intCols("a", "pos"), rows, size), []SortKey{{E: col(0)}})
		s.SetBatchSize(size)
		got, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i][0].Int() != want[i][0] || got[i][1].Int() != want[i][1] {
				t.Fatalf("size %d: row %d = %v, want %v", size, i, got[i], want[i])
			}
		}
	}
}

func TestSortNullsFirst(t *testing.T) {
	rows := []Row{{datum.NewInt(1)}, {datum.NewNull(datum.Int)}, {datum.NewInt(-5)}}
	for _, size := range batchSizes {
		s := NewSort(sizedValues(intCols("a"), rows, size), []SortKey{{E: col(0)}})
		s.SetBatchSize(size)
		got, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0][0].Null() {
			t.Errorf("size %d: NULL must sort first ascending", size)
		}
	}
}

func aggCols(n int) []Col {
	cols := make([]Col, n)
	for i := range cols {
		cols[i] = Col{Name: fmt.Sprintf("c%d", i), Type: datum.Int}
	}
	return cols
}

func TestHashAggGrouped(t *testing.T) {
	for _, size := range batchSizes {
		v := sizedValues(intCols("g", "x"), intRows(
			[]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 5}, []int64{3, 1}), size)
		agg := NewHashAgg(v,
			[]expr.Expr{col(0)},
			[]*expr.Aggregate{
				{Kind: expr.AggSum, Arg: col(1)},
				{Kind: expr.AggCountStar},
				{Kind: expr.AggMin, Arg: col(1)},
			},
			aggCols(4))
		agg.SetBatchSize(size)
		rows, err := Drain(agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("size %d: groups = %d", size, len(rows))
		}
		// Groups come out in first-seen order: 1, 2, 3.
		checks := map[int64][3]int64{1: {40, 2, 10}, 2: {25, 2, 5}, 3: {1, 1, 1}}
		for _, r := range rows {
			w := checks[r[0].Int()]
			if r[1].Int() != w[0] || r[2].Int() != w[1] || r[3].Int() != w[2] {
				t.Errorf("size %d: group %v = %v, want %v", size, r[0], r[1:], w)
			}
		}
		if rows[0][0].Int() != 1 || rows[1][0].Int() != 2 || rows[2][0].Int() != 3 {
			t.Errorf("size %d: first-seen order violated", size)
		}
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	v := NewValues(intCols("x"), nil)
	agg := NewHashAgg(v, nil,
		[]*expr.Aggregate{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Arg: col(0)}},
		aggCols(2))
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].Null() {
		t.Errorf("empty global agg = %v", rows[0])
	}
}

func TestHashAggNullGroupKeys(t *testing.T) {
	rows := []Row{
		{datum.NewNull(datum.Int), datum.NewInt(1)},
		{datum.NewNull(datum.Int), datum.NewInt(2)},
		{datum.NewInt(7), datum.NewInt(3)},
	}
	agg := NewHashAgg(NewValues(intCols("g", "x"), rows),
		[]expr.Expr{col(0)},
		[]*expr.Aggregate{{Kind: expr.AggSum, Arg: col(1)}},
		aggCols(2))
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("NULLs must group together: %d groups", len(got))
	}
}

// TestSortAggMatchesHashAgg: both strategies fold the same groups to the
// same values at every batch size; the sort strategy emits them in key
// order.
func TestSortAggMatchesHashAgg(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows []Row
	for i := 0; i < 2000; i++ {
		g := rng.Int63n(20)
		x := rng.Int63n(1000)
		rows = append(rows, Row{datum.NewInt(g), datum.NewInt(x)})
	}
	groupBy := []expr.Expr{col(0)}
	aggs := func() []*expr.Aggregate {
		return []*expr.Aggregate{
			{Kind: expr.AggSum, Arg: col(1)},
			{Kind: expr.AggAvg, Arg: col(1)},
			{Kind: expr.AggMax, Arg: col(1)},
			{Kind: expr.AggCountStar},
		}
	}
	for _, size := range batchSizes {
		h := NewHashAgg(sizedValues(intCols("g", "x"), rows, size), groupBy, aggs(), aggCols(5))
		s := NewSortAgg(sizedValues(intCols("g", "x"), rows, size), groupBy, aggs(), aggCols(5))
		h.SetBatchSize(size)
		s.SetBatchSize(size)
		hr, err := Drain(h)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(hr) != len(sr) {
			t.Fatalf("size %d: group counts differ: %d vs %d", size, len(hr), len(sr))
		}
		for i := 1; i < len(sr); i++ {
			if datum.Compare(sr[i-1][0], sr[i][0]) >= 0 {
				t.Fatalf("size %d: sort aggregation out of key order at %d", size, i)
			}
		}
		hm := map[int64]Row{}
		for _, r := range hr {
			hm[r[0].Int()] = r
		}
		for _, o := range sr {
			r := hm[o[0].Int()]
			if r == nil {
				t.Fatalf("size %d: group %d missing in hashagg", size, o[0].Int())
			}
			for i := range r {
				if datum.Compare(r[i], o[i]) != 0 {
					t.Fatalf("size %d: group %d col %d: %v vs %v", size, o[0].Int(), i, r[i], o[i])
				}
			}
		}
	}
}

func TestHashJoin(t *testing.T) {
	left := NewValues(intCols("id", "lv"), intRows(
		[]int64{1, 100}, []int64{2, 200}, []int64{3, 300}))
	right := NewValues(intCols("fk", "rv"), intRows(
		[]int64{2, 7}, []int64{3, 8}, []int64{3, 9}, []int64{4, 10}))
	j := NewHashJoin(left, right, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (2,200)x(2,7), (3,300)x(3,8), (3,300)x(3,9).
	if len(rows) != 3 {
		t.Fatalf("join rows = %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Errorf("join key mismatch in %v", r)
		}
	}
	if len(j.Columns()) != 4 {
		t.Errorf("join schema width = %d", len(j.Columns()))
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := NewValues(intCols("id"), []Row{{datum.NewNull(datum.Int)}, {datum.NewInt(1)}})
	right := NewValues(intCols("fk"), []Row{{datum.NewNull(datum.Int)}, {datum.NewInt(1)}})
	j := NewHashJoin(left, right, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("NULL keys must not join: %v", rows)
	}
}

func TestHashJoinEmptySides(t *testing.T) {
	empty := NewValues(intCols("a"), nil)
	full := NewValues(intCols("a"), intRows([]int64{1}))
	j := NewHashJoin(empty, full, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty build join = %v err %v", rows, err)
	}
	j2 := NewHashJoin(full, empty, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err = Drain(j2)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty probe join = %v err %v", rows, err)
	}
}

// nestedLoop is the join reference: probe order, then build order, keys
// compared with SQL equality (no keys = cross join).
func nestedLoop(build, probe []Row, bk, pk []int) []Row {
	var out []Row
	for _, p := range probe {
	next:
		for _, b := range build {
			for k := range bk {
				if !datum.Equal(b[bk[k]], p[pk[k]]) {
					continue next
				}
			}
			out = append(out, append(append(Row{}, b...), p...))
		}
	}
	return out
}

// selBatches is a batch producer whose batches carry a selection vector:
// every real row sits at an even position, every odd position holds a copy
// of the row before it that the selection excludes — a consumer that
// ignores Sel sees every row twice.
type selBatches struct {
	cols []Col
	rows []Row
	size int
	i    int
	b    *Batch
}

func (s *selBatches) Open() error    { s.i = 0; return nil }
func (s *selBatches) Close() error   { return nil }
func (s *selBatches) Columns() []Col { return s.cols }
func (s *selBatches) NextBatch() (*Batch, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	s.b = NewBatch(len(s.cols), 2*s.size)
	b := s.b
	b.Sel = []int{}
	for ; s.i < len(s.rows) && len(b.Sel) < s.size; s.i++ {
		for rep := 0; rep < 2; rep++ {
			for c := range b.Cols {
				b.Cols[c] = append(b.Cols[c], s.rows[s.i][c])
			}
		}
		b.Sel = append(b.Sel, b.N)
		b.N += 2
	}
	return b, nil
}

func anyCols(n int) []Col {
	cols := make([]Col, n)
	for i := range cols {
		cols[i] = Col{Name: fmt.Sprintf("c%d", i)}
	}
	return cols
}

// TestHashJoinAgainstNestedLoop drains every case over default-size,
// one-row and Sel-carrying input batches, into one-row and default-size
// output batches, and requires the nested-loop reference's rows in its
// order.
func TestHashJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	I, F, T, D := datum.NewInt, datum.NewFloat, datum.NewText, datum.NewDate
	null := datum.NewNull(datum.Int)
	gen := func(n int, key func(i int) []datum.Datum) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = append(key(i), I(int64(i)))
		}
		return rows
	}
	modKey := func(m int) func(int) []datum.Datum {
		return func(i int) []datum.Datum { return []datum.Datum{I(int64(i % m))} }
	}
	type joinCase struct {
		name         string
		build, probe []Row
		bk, pk       []int
	}
	cases := []joinCase{
		{"int keys", gen(300, func(int) []datum.Datum { return []datum.Datum{I(rng.Int63n(50))} }),
			gen(300, func(int) []datum.Datum { return []datum.Datum{I(rng.Int63n(50))} }), []int{0}, []int{0}},
		{"date keys", gen(200, func(i int) []datum.Datum { return []datum.Datum{D(int64(i % 40))} }),
			gen(200, func(i int) []datum.Datum { return []datum.Datum{D(int64(i % 60))} }), []int{0}, []int{0}},
		{"date vs int keys never match", gen(20, func(i int) []datum.Datum { return []datum.Datum{D(int64(i))} }),
			gen(20, func(i int) []datum.Datum { return []datum.Datum{I(int64(i))} }), []int{0}, []int{0}},
		{"multi-column keys", gen(250, func(i int) []datum.Datum {
			return []datum.Datum{I(int64(i % 7)), T(fmt.Sprint("t", i%5))}
		}), gen(250, func(i int) []datum.Datum {
			return []datum.Datum{I(int64(i % 5)), T(fmt.Sprint("t", i%7))}
		}), []int{0, 1}, []int{0, 1}},
		{"text keys", gen(120, func(i int) []datum.Datum { return []datum.Datum{T(fmt.Sprint("k", i%30))} }),
			gen(90, func(i int) []datum.Datum { return []datum.Datum{T(fmt.Sprint("k", i%45))} }), []int{0}, []int{0}},
		{"int build, float probe", gen(50, modKey(20)), gen(80, func(i int) []datum.Datum {
			return []datum.Datum{F(float64(i%40) / 2)} // whole and half numbers
		}), []int{0}, []int{0}},
		{"float build, int probe", gen(80, func(i int) []datum.Datum { return []datum.Datum{F(float64(i%40) / 2)} }),
			gen(50, modKey(20)), []int{0}, []int{0}},
		{"mixed-tag build keys", gen(60, func(i int) []datum.Datum {
			if i%2 == 0 {
				return []datum.Datum{I(int64(i % 10))}
			}
			return []datum.Datum{F(float64(i % 10))}
		}), gen(40, modKey(12)), []int{0}, []int{0}},
		{"NULL keys on either side", gen(100, func(i int) []datum.Datum {
			if i%3 == 0 {
				return []datum.Datum{null, I(1)}
			}
			return []datum.Datum{I(int64(i % 4)), I(1)}
		}), gen(100, func(i int) []datum.Datum {
			if i%5 == 0 {
				return []datum.Datum{I(int64(i % 4)), null}
			}
			return []datum.Datum{I(int64(i % 4)), I(1)}
		}), []int{0, 1}, []int{0, 1}},
		{"fan-out larger than one output batch", gen(2*DefaultBatchSize+100, modKey(2)),
			gen(5, modKey(3)), []int{0}, []int{0}},
		{"zero keys (cross join)", gen(40, modKey(40)), gen(60, modKey(60)), nil, nil},
		{"empty build", nil, gen(10, modKey(3)), []int{0}, []int{0}},
		{"empty probe", gen(10, modKey(3)), nil, []int{0}, []int{0}},
	}
	for _, nb := range []int{1, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1} {
		for _, np := range []int{1, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1} {
			cases = append(cases, joinCase{fmt.Sprintf("sizes build=%d probe=%d", nb, np),
				gen(nb, modKey(257)), gen(np, modKey(300)), []int{0}, []int{0}})
		}
	}

	keyExprs := func(idx []int) []expr.Expr {
		out := make([]expr.Expr, len(idx))
		for i, k := range idx {
			out[i] = col(k)
		}
		return out
	}
	inputs := map[string]func(rows []Row, width int) Operator{
		"values": func(rows []Row, width int) Operator { return NewValues(anyCols(width), rows) },
		"one-row batches": func(rows []Row, width int) Operator {
			return sizedValues(anyCols(width), rows, 1)
		},
		"sel batches": func(rows []Row, width int) Operator {
			return &selBatches{cols: anyCols(width), rows: rows, size: 100}
		},
	}
	for _, tc := range cases {
		want := nestedLoop(tc.build, tc.probe, tc.bk, tc.pk)
		width := len(tc.bk) + 1 // gen: key columns, then the row number
		if tc.bk == nil {
			width = 2
		}
		for inName, in := range inputs {
			for _, out := range []int{1, DefaultBatchSize} {
				j := NewHashJoin(in(tc.build, width), in(tc.probe, width), keyExprs(tc.bk), keyExprs(tc.pk))
				j.SetBatchSize(out)
				got, err := Drain(j)
				if err != nil {
					t.Fatalf("%s/%s/out %d: %v", tc.name, inName, out, err)
				}
				if len(got) != len(want) {
					t.Errorf("%s/%s/out %d: %d rows, nested loop %d", tc.name, inName, out, len(got), len(want))
					continue
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s/%s/out %d: row %d = %v, nested loop %v", tc.name, inName, out, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestHashJoinExpressionKeys: a key that is not a bare column reference is
// evaluated per batch on both sides.
func TestHashJoinExpressionKeys(t *testing.T) {
	build := intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	probe := intRows([]int64{2, 7}, []int64{3, 8}, []int64{4, 9}, []int64{9, 9})
	plus1 := &expr.BinOp{Op: expr.Add, L: col(0), R: lit(1)}
	j := NewHashJoin(NewValues(intCols("a", "b"), build), NewValues(intCols("c", "d"), probe),
		[]expr.Expr{plus1}, []expr.Expr{col(0)}) // a + 1 = c
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	want := intRows([]int64{1, 10, 2, 7}, []int64{2, 20, 3, 8}, []int64{3, 30, 4, 9})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a + 1 = c: got %v want %v", got, want)
	}
}

// TestHashJoinBuildClosedBeforeProbeOpens pins the table-lock rule: the
// build child is drained and closed before the probe child opens, and the
// join offers no row budget for a LIMIT to reach a scan through.
func TestHashJoinBuildClosedBeforeProbeOpens(t *testing.T) {
	var events []string
	leaf := func(name string, rows []Row) Operator {
		return &hooked{Operator: NewValues(intCols("k"), rows), name: name, events: &events}
	}
	j := NewHashJoin(leaf("build", intRows([]int64{1})), leaf("probe", intRows([]int64{1})),
		[]expr.Expr{col(0)}, []expr.Expr{col(0)})
	if _, err := Drain(j); err != nil {
		t.Fatal(err)
	}
	want := []string{"build open", "build close", "probe open", "probe close"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("open/close order = %v, want %v", events, want)
	}
	if _, ok := Operator(j).(RowBudgeter); ok {
		t.Error("HashJoin must not implement RowBudgeter")
	}
}

// hooked logs its Open and Close calls into events.
type hooked struct {
	Operator
	name   string
	events *[]string
}

func (h *hooked) Open() error {
	*h.events = append(*h.events, h.name+" open")
	return h.Operator.Open()
}

func (h *hooked) Close() error {
	*h.events = append(*h.events, h.name+" close")
	return h.Operator.Close()
}

func TestCount(t *testing.T) {
	v := NewValues(intCols("a"), intRows([]int64{1}, []int64{2}))
	n, err := Count(v)
	if err != nil || n != 2 {
		t.Errorf("Count = %d err %v", n, err)
	}
}
