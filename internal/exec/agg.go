package exec

import (
	"fmt"
	"io"
	"math"
	"sort"

	"nodb/internal/datum"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// accum is one aggregate's state for every group, in columns indexed by
// group id: the one accumulator behind HashAgg (fed a batch at a time) and
// SortAgg and HashAgg's row input (fed through add). count doubles as
// MIN/MAX's "seen" flag; sumI, sumF and anyF exist for SUM and AVG, minMax
// for MIN and MAX, distinct for DISTINCT aggregates.
type accum struct {
	kind     expr.AggKind
	count    []int64
	sumI     []int64
	sumF     []float64
	anyF     []bool // saw a Float input: SUM is Float
	minMax   []datum.Datum
	distinct map[distinctKey]struct{}
}

// distinctKey is one (group, value) pair of a DISTINCT aggregate. A
// value's identity is its type tag plus its text form: the payload for
// Int, Date and Bool, the bits for Float (every NaN folds to one, as all
// format "NaN"), the string for Text.
type distinctKey struct {
	g    int32
	t    datum.Type
	bits uint64
	s    string
}

func newAccums(aggs []*expr.Aggregate) []accum {
	accs := make([]accum, len(aggs))
	for i, ag := range aggs {
		accs[i].kind = ag.Kind
		if ag.Distinct {
			accs[i].distinct = make(map[distinctKey]struct{})
		}
	}
	return accs
}

// resizeAll extends every accumulator to n groups.
func resizeAll(accs []accum, n int) {
	for i := range accs {
		accs[i].resize(n)
	}
}

// resize extends the state to n groups.
func (a *accum) resize(n int) {
	for len(a.count) < n {
		a.count = append(a.count, 0)
		switch a.kind {
		case expr.AggSum, expr.AggAvg:
			a.sumI = append(a.sumI, 0)
			a.sumF = append(a.sumF, 0)
			a.anyF = append(a.anyF, false)
		case expr.AggMin, expr.AggMax:
			a.minMax = append(a.minMax, datum.Datum{})
		}
	}
}

// add folds one input value into group g. COUNT(*) counts any value;
// every other aggregate ignores NULLs. SUM stays Int until a Float
// arrives, and Int inputs fold into the float sum as well, in input
// order, so a later Float (and AVG) sees the exact running sum.
func (a *accum) add(g int32, v datum.Datum) {
	if a.kind == expr.AggCountStar {
		a.count[g]++
		return
	}
	if v.Null() || (a.distinct != nil && !a.firstSight(g, v)) {
		return
	}
	switch a.kind {
	case expr.AggSum, expr.AggAvg:
		if v.T == datum.Float {
			a.anyF[g] = true
			a.sumF[g] += v.Float()
		} else {
			a.sumI[g] += v.Int()
			a.sumF[g] += float64(v.Int())
		}
	case expr.AggMin:
		if a.count[g] == 0 || datum.Compare(v, a.minMax[g]) < 0 {
			a.minMax[g] = v
		}
	case expr.AggMax:
		if a.count[g] == 0 || datum.Compare(v, a.minMax[g]) > 0 {
			a.minMax[g] = v
		}
	}
	a.count[g]++
}

// firstSight records v in group g's DISTINCT set, reporting whether it
// was new.
func (a *accum) firstSight(g int32, v datum.Datum) bool {
	k := distinctKey{g: g, t: v.T}
	switch v.T {
	case datum.Float:
		f := v.Float()
		if f != f {
			f = math.NaN()
		}
		k.bits = math.Float64bits(f)
	case datum.Text:
		k.s = v.Text()
	default:
		k.bits = uint64(v.Int())
	}
	if _, dup := a.distinct[k]; dup {
		return false
	}
	a.distinct[k] = struct{}{}
	return true
}

// addVec folds a typed argument vector at the live positions: one tight
// loop for COUNT, SUM and AVG, the Datum entry for MIN, MAX and DISTINCT.
//
//nodb:hotpath
func (a *accum) addVec(gids []int32, v *expr.Vec, live []int) {
	nulls := v.Null
	switch {
	case a.distinct != nil || a.kind == expr.AggMin || a.kind == expr.AggMax:
		for _, i := range live {
			if !v.IsNull(i) {
				a.add(gids[i], v.Datum(i))
			}
		}
	case a.kind == expr.AggCount:
		for _, i := range live {
			if nulls == nil || !nulls[i] {
				a.count[gids[i]]++
			}
		}
	case v.T == datum.Float:
		for _, i := range live {
			if nulls != nil && nulls[i] {
				continue
			}
			g := gids[i]
			a.anyF[g] = true
			a.sumF[g] += v.F[i]
			a.count[g]++
		}
	default:
		for _, i := range live {
			if nulls != nil && nulls[i] {
				continue
			}
			g, x := gids[i], v.I[i]
			a.sumI[g] += x
			a.sumF[g] += float64(x)
			a.count[g]++
		}
	}
}

// result is the aggregate's value for group g. Empty input yields 0 for
// the COUNT family, a Float-typed NULL for SUM and AVG, and an untyped
// NULL for MIN and MAX.
func (a *accum) result(g int32) datum.Datum {
	n := a.count[g]
	switch a.kind {
	case expr.AggCount, expr.AggCountStar:
		return datum.NewInt(n)
	case expr.AggSum:
		switch {
		case n == 0:
			return datum.NewNull(datum.Float)
		case a.anyF[g]:
			return datum.NewFloat(a.sumF[g])
		}
		return datum.NewInt(a.sumI[g])
	case expr.AggAvg:
		if n == 0 {
			return datum.NewNull(datum.Float)
		}
		return datum.NewFloat(a.sumF[g] / float64(n))
	case expr.AggMin, expr.AggMax:
		if n == 0 {
			return datum.NewNull(datum.Unknown)
		}
		return a.minMax[g]
	}
	return datum.NewNull(datum.Unknown)
}

// appendResults appends every aggregate's result for group g to out.
func appendResults(out Row, accs []accum, g int32) Row {
	for i := range accs {
		out = append(out, accs[i].result(g))
	}
	return out
}

// aggSpec is shared by the hash and sort aggregation operators: group-by
// expressions followed by aggregate calls. The output row layout is
// [group values..., aggregate results...].
type aggSpec struct {
	child   Operator
	groupBy []expr.Expr
	aggs    []*expr.Aggregate
	cols    []Col
}

// feedRow folds one input row into group g through the Datum entry.
func (a *aggSpec) feedRow(accs []accum, g int32, r Row) error {
	for i, ag := range a.aggs {
		v := datum.NewBool(true) // COUNT(*) counts the row
		if ag.Kind != expr.AggCountStar && ag.Arg != nil {
			var err error
			if v, err = ag.Arg.Eval(r); err != nil {
				return err
			}
		}
		accs[i].add(g, v)
	}
	return nil
}

// HashAgg groups rows with a hash table — the plan a cost-based optimizer
// picks when the estimated number of groups is modest. Groups are emitted
// in first-seen order; each folds its input in input order.
//
// With batch input (SetBatchInput) each batch's key vectors are hashed
// once into group ids through the group table (the chain table the hash
// join builds on), then every aggregate folds its (group id, value) pairs
// in one loop: over a typed vector when the planner attached a compiled
// value program to the argument (expr.Kernel.EvalVec) and the batch's
// values carry the program's types, over the argument's Datum vector
// otherwise. The row input evaluates keys and arguments per row into the
// same table and accumulators.
type HashAgg struct {
	aggSpec
	// SizeHint pre-sizes the group table (a statistics-driven optimization;
	// see Fig 12). Zero means no hint.
	SizeHint int

	bsrc BatchOperator // vectorized input; takes precedence over child

	groups groupTable
	accs   []accum
	i      int

	span                           *qtrace.Span
	prof                           *qtrace.Profile
	rowsIn, typedArgs, genericArgs int64
}

// NewHashAgg builds a hash aggregation operator.
func NewHashAgg(child Operator, groupBy []expr.Expr, aggs []*expr.Aggregate, cols []Col) *HashAgg {
	return &HashAgg{aggSpec: aggSpec{child: child, groupBy: groupBy, aggs: aggs, cols: cols}}
}

// SetBatchInput makes the aggregation consume column-major batches from b
// instead of rows from its child.
func (h *HashAgg) SetBatchInput(b BatchOperator) { h.bsrc = b }

// SetTraceSpan implements qtrace.SpanSetter: Open annotates the span with
// its input rows, groups, and argument batches folded typed versus
// through Datums.
func (h *HashAgg) SetTraceSpan(sp *qtrace.Span) { h.span = sp }

// CountBatches makes Open add its typed argument batches to p's kernel
// batch counter and its Datum ones to the generic counter.
func (h *HashAgg) CountBatches(p *qtrace.Profile) { h.prof = p }

// Open consumes the input and builds all groups.
func (h *HashAgg) Open() error {
	hint := 64
	if h.SizeHint > 0 {
		hint = h.SizeHint
	}
	h.groups.init(len(h.groupBy), hint)
	h.accs = newAccums(h.aggs)
	h.i = 0
	h.rowsIn, h.typedArgs, h.genericArgs = 0, 0, 0
	if len(h.groupBy) == 0 {
		h.groups.find(nil, 0, 0) // a global aggregate has exactly one group
		resizeAll(h.accs, h.groups.len())
	}
	var err error
	if h.bsrc != nil {
		err = h.buildBatches()
	} else {
		err = h.buildRows()
	}
	if h.span != nil {
		h.span.SetDetail(fmt.Sprintf("input_rows=%d groups=%d typed_arg_batches=%d generic_arg_batches=%d",
			h.rowsIn, h.groups.len(), h.typedArgs, h.genericArgs))
	}
	h.prof.Count(qtrace.CtrKernelBatches, h.typedArgs)
	h.prof.Count(qtrace.CtrGenericBatches, h.genericArgs)
	return err
}

// buildRows is the row input: keys and arguments evaluate per row.
func (h *HashAgg) buildRows() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	defer h.child.Close()
	key := make(Row, len(h.groupBy))
	kv := make([][]datum.Datum, len(h.groupBy)) // one-row key vectors over key
	for k := range kv {
		kv[k] = key[k : k+1]
	}
	for {
		r, err := h.child.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		h.rowsIn++
		var g int32
		if len(h.groupBy) > 0 {
			for k, e := range h.groupBy {
				if key[k], err = e.Eval(r); err != nil {
					return err
				}
			}
			g = h.groups.find(kv, 0, tupleHash(kv, 0))
			resizeAll(h.accs, h.groups.len())
		}
		if err := h.feedRow(h.accs, g, r); err != nil {
			return err
		}
	}
}

// buildBatches is the vectorized build: group ids once per batch, then
// one fold per aggregate.
func (h *HashAgg) buildBatches() error {
	if err := h.bsrc.Open(); err != nil {
		return err
	}
	defer h.bsrc.Close()
	kv := make([][]datum.Datum, len(h.groupBy))
	keyScratch := make([][]datum.Datum, len(h.groupBy))
	argScratch := make([][]datum.Datum, len(h.aggs))
	var dense []int
	var hashes []uint64
	var gids []int32 // all zero for a global aggregate
	for {
		b, err := h.bsrc.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(gids) < b.N {
			dense, hashes, gids = make([]int, b.N), make([]uint64, b.N), make([]int32, b.N)
			for i := range dense {
				dense[i] = i
			}
		}
		live := b.Sel
		if live == nil {
			live = dense[:b.N]
		}
		h.rowsIn += int64(len(live))
		if len(h.groupBy) > 0 {
			for k, e := range h.groupBy {
				if kv[k], err = evalVec(e, b, &keyScratch[k]); err != nil {
					return err
				}
			}
			h.groups.assign(kv, live, hashes, gids)
			resizeAll(h.accs, h.groups.len())
		}
		for ai, ag := range h.aggs {
			if err := h.feed(&h.accs[ai], ag, b, live, gids, &argScratch[ai]); err != nil {
				return err
			}
		}
	}
}

// feed folds one aggregate's argument over a batch: typed when the
// argument carries a value program and the batch types, as Datums
// otherwise.
func (h *HashAgg) feed(acc *accum, ag *expr.Aggregate, b *Batch, live []int, gids []int32, scratch *[]datum.Datum) error {
	if ag.Kind == expr.AggCountStar || ag.Arg == nil {
		for _, i := range live {
			acc.add(gids[i], datum.NewBool(true))
		}
		return nil
	}
	arg := ag.Arg
	if k, ok := arg.(*expr.Kernel); ok && k.EvalVec != nil {
		v, ok, err := k.EvalVec(b.Cols, b.N, b.Sel)
		if err != nil {
			return err
		}
		if ok {
			acc.addVec(gids, v, live)
			h.typedArgs++
			return nil
		}
		arg = k.E
	}
	vals, err := evalVec(arg, b, scratch)
	if err != nil {
		return err
	}
	for _, i := range live {
		acc.add(gids[i], vals[i])
	}
	h.genericArgs++
	return nil
}

// Next emits one group per call.
func (h *HashAgg) Next() (Row, error) {
	if h.i >= h.groups.len() {
		return nil, io.EOF
	}
	g := int32(h.i)
	h.i++
	out := make(Row, 0, len(h.groupBy)+len(h.accs))
	for _, col := range h.groups.keys {
		out = append(out, col[g])
	}
	return appendResults(out, h.accs, g), nil
}

// Close releases the group table.
func (h *HashAgg) Close() error {
	h.groups = groupTable{}
	h.accs = nil
	return nil
}

// Columns returns the [group..., aggregates...] schema.
func (h *HashAgg) Columns() []Col { return h.cols }

// SortAgg groups rows by sorting on the grouping key and starting a group
// whenever the key changes, folding into the same accumulators as HashAgg
// through their Datum entry. Used by the optimizer when statistics are
// unavailable and it must assume many groups (the conservative plan whose
// cost Fig 12 exposes).
type SortAgg struct {
	aggSpec
	keys []Row // group g's key, groups in key order
	accs []accum
	i    int
}

// NewSortAgg builds a sort-based aggregation operator.
func NewSortAgg(child Operator, groupBy []expr.Expr, aggs []*expr.Aggregate, cols []Col) *SortAgg {
	return &SortAgg{aggSpec: aggSpec{child: child, groupBy: groupBy, aggs: aggs, cols: cols}}
}

// Open materializes, sorts by the grouping key, and folds runs into groups.
func (s *SortAgg) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	s.keys, s.accs, s.i = s.keys[:0], newAccums(s.aggs), 0

	type keyed struct {
		row Row
		key Row
	}
	var items []keyed
	for {
		r, err := s.child.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		key := make(Row, len(s.groupBy))
		for k, e := range s.groupBy {
			if key[k], err = e.Eval(r); err != nil {
				return err
			}
		}
		items = append(items, keyed{row: CloneRow(r), key: key})
	}
	cmpKeys := func(a, b Row) int {
		for i := range a {
			if c := datum.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(items, func(a, b int) bool { return cmpKeys(items[a].key, items[b].key) < 0 })
	g := int32(-1)
	for _, it := range items {
		if g < 0 || cmpKeys(s.keys[g], it.key) != 0 {
			s.keys = append(s.keys, it.key)
			g++
			resizeAll(s.accs, len(s.keys))
		}
		if err := s.feedRow(s.accs, g, it.row); err != nil {
			return err
		}
	}
	if len(s.groupBy) == 0 && len(s.keys) == 0 {
		s.keys = append(s.keys, Row{})
		resizeAll(s.accs, len(s.keys))
	}
	return nil
}

// Next emits one group per call.
func (s *SortAgg) Next() (Row, error) {
	if s.i >= len(s.keys) {
		return nil, io.EOF
	}
	g := int32(s.i)
	s.i++
	out := make(Row, 0, len(s.groupBy)+len(s.accs))
	return appendResults(append(out, s.keys[g]...), s.accs, g), nil
}

// Close releases buffered groups.
func (s *SortAgg) Close() error {
	s.keys, s.accs = nil, nil
	return nil
}

// Columns returns the [group..., aggregates...] schema.
func (s *SortAgg) Columns() []Col { return s.cols }
