package kernel

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// The differential aggregation test: random tables with NULLs, random
// GROUP BY sets and aggregate lists, run through every aggregation front
// end — HashAgg over batches with typed (compiled) and Datum arguments,
// with and without selection vectors, at batch sizes 1, 7 and 1024;
// HashAgg over rows; SortAgg — and compared with a naive reference that
// evaluates each row with Eval and keeps its groups in a map. Values,
// types and emission order must be byte-identical.

// diffCols: c0 Int (small, zero divisors), c1 Float (whole and fractional
// values, now and then an Int-tagged one the typed programs must refuse),
// c2 Date, c3 Text, c4 Bool, c5 Int wide enough for more groups than one
// batch holds.
var diffCols = []exec.Col{
	{Name: "c0", Type: datum.Int}, {Name: "c1", Type: datum.Float}, {Name: "c2", Type: datum.Date},
	{Name: "c3", Type: datum.Text}, {Name: "c4", Type: datum.Bool}, {Name: "c5", Type: datum.Int},
}

func dcol(i int) *expr.ColRef { return &expr.ColRef{Index: i, Type: diffCols[i].Type} }

func dbin(op expr.Op, l, r expr.Expr) expr.Expr { return &expr.BinOp{Op: op, L: l, R: r} }

func diffRow(rng *rand.Rand, wide int) exec.Row {
	r := make(exec.Row, len(diffCols))
	for c, col := range diffCols {
		if rng.Intn(8) == 0 {
			if rng.Intn(4) == 0 {
				r[c] = datum.Datum{} // an untyped NULL
			} else {
				r[c] = datum.NewNull(col.Type)
			}
			continue
		}
		switch c {
		case 0:
			r[c] = datum.NewInt(int64(rng.Intn(9) - 2))
		case 1:
			if rng.Intn(40) == 0 {
				r[c] = datum.NewInt(int64(rng.Intn(5)))
			} else {
				r[c] = datum.NewFloat(float64(rng.Intn(64)) / 4)
			}
		case 2:
			r[c] = datum.NewDate(int64(9000 + rng.Intn(40)))
		case 3:
			r[c] = datum.NewText(fmt.Sprintf("t%d", rng.Intn(6)))
		case 4:
			r[c] = datum.NewBool(rng.Intn(2) == 0)
		case 5:
			r[c] = datum.NewInt(int64(rng.Intn(wide)))
		}
	}
	return r
}

// junkRow sits at dead batch positions: counted, it would add groups and
// shift every aggregate, and c0+3 divides by zero.
var junkRow = exec.Row{datum.NewInt(-3), datum.NewFloat(1e6), datum.NewDate(0),
	datum.NewText("junk"), datum.NewBool(true), datum.NewInt(999_999)}

func diffArgs() []expr.Expr {
	one, three := lit(datum.NewInt(1)), lit(datum.NewInt(3))
	return []expr.Expr{
		dcol(0), dcol(1), dcol(2), dcol(3), dcol(4), dcol(5),
		dbin(expr.Add, dcol(0), one),
		dbin(expr.Mul, dcol(1), lit(datum.NewFloat(2.5))),
		dbin(expr.Mul, dcol(5), dbin(expr.Sub, one, dcol(1))),
		dbin(expr.Mul, dbin(expr.Mul, dcol(1), dbin(expr.Sub, one, dcol(0))), dbin(expr.Add, lit(datum.NewFloat(1)), dcol(1))),
		dbin(expr.Sub, dcol(2), lit(datum.NewInt(30))),
		dbin(expr.Sub, dcol(2), dcol(2)),
		dbin(expr.Add, dcol(4), dcol(0)),
		dbin(expr.Div, dcol(5), lit(datum.NewInt(4))),
		dbin(expr.Div, dcol(5), dbin(expr.Add, dcol(0), three)), // zero only at dead positions
		dbin(expr.Mul, &expr.Case{Whens: []expr.When{{Cond: dbin(expr.Gt, dcol(0), lit(datum.NewInt(0))), Then: dcol(5)}},
			Else: lit(datum.NewInt(0))}, three),
		dbin(expr.Mul, &expr.Case{Whens: []expr.When{{Cond: dcol(4), Then: dcol(1)}}}, lit(datum.NewFloat(2))),
	}
}

var divByZeroArg = dbin(expr.Div, dcol(5), dcol(0))

func diffGroupBys() []expr.Expr {
	return []expr.Expr{dcol(0), dcol(1), dcol(2), dcol(3), dcol(4), dcol(5), dbin(expr.Add, dcol(0), lit(datum.NewInt(1)))}
}

// refAggregate is the reference: Eval per row, groups keyed by a canonical
// text of datum.Compare's equivalence, emitted in first-seen order.
func refAggregate(rows []exec.Row, gb []expr.Expr, aggs []*expr.Aggregate) ([]exec.Row, error) {
	type group struct {
		key    exec.Row
		rows   int64
		inputs [][]datum.Datum
	}
	index := map[string]int{}
	var groups []*group
	if len(gb) == 0 {
		groups = append(groups, &group{inputs: make([][]datum.Datum, len(aggs))})
	}
	for _, r := range rows {
		key := make(exec.Row, len(gb))
		for k, e := range gb {
			v, err := e.Eval(r)
			if err != nil {
				return nil, err
			}
			key[k] = v
		}
		gi := 0
		if len(gb) > 0 {
			ks := canonKey(key)
			var ok bool
			if gi, ok = index[ks]; !ok {
				gi = len(groups)
				index[ks] = gi
				groups = append(groups, &group{key: key, inputs: make([][]datum.Datum, len(aggs))})
			}
		}
		g := groups[gi]
		g.rows++
		for ai, ag := range aggs {
			if ag.Kind == expr.AggCountStar {
				continue
			}
			v, err := ag.Arg.Eval(r)
			if err != nil {
				return nil, err
			}
			g.inputs[ai] = append(g.inputs[ai], v)
		}
	}
	var out []exec.Row
	for _, g := range groups {
		row := append(exec.Row{}, g.key...)
		for ai, ag := range aggs {
			row = append(row, refResult(ag, g.rows, g.inputs[ai]))
		}
		out = append(out, row)
	}
	return out, nil
}

// canonKey renders a group key so that keys datum.Compare orders equal
// render equal (for the test's small whole numbers): NULLs alike, Int and
// Float by numeric value.
func canonKey(key exec.Row) string {
	var b strings.Builder
	for _, d := range key {
		switch {
		case d.Null():
			b.WriteString("N|")
		case d.T == datum.Int || d.T == datum.Float:
			b.WriteString("n" + strconv.FormatFloat(d.Float(), 'g', -1, 64) + "|")
		default:
			fmt.Fprintf(&b, "%d:%s|", d.T, d.Format())
		}
	}
	return b.String()
}

func refResult(ag *expr.Aggregate, rows int64, in []datum.Datum) datum.Datum {
	if ag.Kind == expr.AggCountStar {
		return datum.NewInt(rows)
	}
	var vals []datum.Datum
	seen := map[string]bool{}
	for _, v := range in {
		if v.Null() {
			continue
		}
		if ag.Distinct {
			k := v.T.String() + ":" + v.Format()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch ag.Kind {
	case expr.AggCount:
		return datum.NewInt(int64(len(vals)))
	case expr.AggSum, expr.AggAvg:
		if len(vals) == 0 {
			return datum.NewNull(datum.Float)
		}
		var si int64
		var sf float64
		anyF := false
		for _, v := range vals {
			if v.T == datum.Float {
				anyF = true
				sf += v.Float()
			} else {
				si += v.Int()
				sf += float64(v.Int())
			}
		}
		switch {
		case ag.Kind == expr.AggAvg:
			return datum.NewFloat(sf / float64(len(vals)))
		case anyF:
			return datum.NewFloat(sf)
		}
		return datum.NewInt(si)
	default: // MIN, MAX: the first of the extreme values
		if len(vals) == 0 {
			return datum.NewNull(datum.Unknown)
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := datum.Compare(v, best)
			if (ag.Kind == expr.AggMin && c < 0) || (ag.Kind == expr.AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
}

// diffSource serves rows as batches of at most size live rows; with junk
// set, dead rows are interleaved and a selection vector lists the live
// positions.
type diffSource struct {
	rows []exec.Row
	size int
	junk bool
	rng  *rand.Rand
	pos  int
	b    *exec.Batch
}

func (s *diffSource) Open() error         { s.pos = 0; return nil }
func (s *diffSource) Close() error        { return nil }
func (s *diffSource) Columns() []exec.Col { return diffCols }

func (s *diffSource) NextBatch() (*exec.Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	if s.b == nil {
		s.b = exec.NewBatch(len(diffCols), 2*s.size)
	}
	b := s.b
	b.Reset()
	var sel []int
	push := func(r exec.Row) {
		for j := range b.Cols {
			b.Cols[j] = append(b.Cols[j], r[j])
		}
		b.N++
	}
	for live := 0; live < s.size && s.pos < len(s.rows); {
		if s.junk && s.rng.Intn(3) == 0 {
			push(junkRow)
			continue
		}
		if s.junk {
			sel = append(sel, b.N)
		}
		push(s.rows[s.pos])
		s.pos++
		live++
	}
	b.Sel = sel
	return b, nil
}

// TestKernelAggregationDifferential: every aggregation front end agrees
// with the reference byte for byte, errors included.
func TestKernelAggregationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	c := NewCache(0)
	args, gbs := diffArgs(), diffGroupBys()
	kinds := []expr.AggKind{expr.AggCount, expr.AggCountStar, expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	var typedBatches int64
	for trial := 0; trial < trials; trial++ {
		nrows := 1500 + rng.Intn(1500)
		if trial%10 == 0 {
			nrows = 0 // empty input: one row for a global aggregate, none grouped
		}
		rows := make([]exec.Row, nrows)
		for i := range rows {
			rows[i] = diffRow(rng, 2000)
		}
		var gb []expr.Expr
		for _, i := range rng.Perm(len(gbs))[:rng.Intn(4)] {
			gb = append(gb, gbs[i])
		}
		if trial%7 == 3 {
			gb = []expr.Expr{dcol(5), dcol(4)} // more groups than a batch holds
		}
		aggs := make([]*expr.Aggregate, 1+rng.Intn(5))
		for i := range aggs {
			ag := &expr.Aggregate{Kind: kinds[rng.Intn(len(kinds))]}
			if ag.Kind != expr.AggCountStar {
				ag.Arg = args[rng.Intn(len(args))]
				ag.Distinct = rng.Intn(4) == 0
			}
			aggs[i] = ag
		}
		if trial%9 == 5 {
			aggs = append(aggs, &expr.Aggregate{Kind: expr.AggSum, Arg: divByZeroArg})
		}
		label := fmt.Sprintf("trial %d (rows=%d group by %v, aggs %v)", trial, nrows, gb, aggs)
		want, werr := refAggregate(rows, gb, aggs)
		outCols := make([]exec.Col, len(gb)+len(aggs))

		check := func(how string, op exec.Operator, byKey bool) {
			t.Helper()
			got, err := exec.Drain(op)
			if werr != nil || err != nil {
				if werr == nil || err == nil || werr.Error() != err.Error() {
					t.Errorf("%s via %s: error %v, reference %v", label, how, err, werr)
				}
				return
			}
			exp := want
			if byKey {
				exp = sortedByKey(want, len(gb))
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s via %s: %d groups, reference %d; first difference %s", label, how, len(got), len(exp), firstDiff(got, exp))
			}
		}
		for _, size := range []int{1, 7, 1024} {
			for _, junk := range []bool{false, true} {
				src := func() *diffSource {
					return &diffSource{rows: rows, size: size, junk: junk, rng: rand.New(rand.NewSource(int64(trial)))}
				}
				sa := exec.NewSortAgg(src(), gb, aggs, outCols)
				sa.SetBatchSize(size)
				check(fmt.Sprintf("SortAgg (size %d, sel %v)", size, junk), sa, true)
				for _, typed := range []bool{false, true} {
					bound := aggs
					if typed {
						bound = make([]*expr.Aggregate, len(aggs))
						for i, ag := range aggs {
							cp := *ag
							if cp.Arg != nil {
								cp.Arg = c.Value(cp.Arg)
							}
							bound[i] = &cp
						}
					}
					h := exec.NewHashAgg(src(), gb, bound, outCols)
					h.SetBatchSize(size)
					sp := qtrace.NewSpan("hash aggregate")
					h.SetTraceSpan(sp)
					check(fmt.Sprintf("HashAgg batches (size %d, sel %v, typed %v)", size, junk, typed), h, false)
					var in, groups, tb, gen int64
					fmt.Sscanf(sp.Detail(), "input_rows=%d groups=%d typed_arg_batches=%d generic_arg_batches=%d", &in, &groups, &tb, &gen)
					if werr == nil && in != int64(nrows) {
						t.Errorf("%s: span reports %d input rows, want %d", label, in, nrows)
					}
					typedBatches += tb
				}
			}
		}
	}
	if typedBatches == 0 {
		t.Error("no argument batch ran a typed program")
	}
}

// sortedByKey orders reference groups the way SortAgg emits them.
func sortedByKey(rows []exec.Row, width int) []exec.Row {
	out := append([]exec.Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for i := 0; i < width; i++ {
			if c := datum.Compare(out[a][i], out[b][i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func firstDiff(got, want []exec.Row) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("row %d: got %#v, want %#v", i, got[i], want[i])
		}
	}
	return "in length"
}
