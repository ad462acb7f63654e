package plan

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
	"nodb/internal/sqlparse"
)

// skeletonBuilds counts skeleton constructions (i.e. full resolution +
// classification passes); the skeleton-cache tests assert that repeated
// executions of a prepared statement pay it exactly once.
var skeletonBuilds atomic.Int64

// SkeletonBuilds returns how many resolution/classification passes have
// run process-wide. Test instrumentation.
func SkeletonBuilds() int64 { return skeletonBuilds.Load() }

// Skeleton is the parameter-independent half of a plan: the statement
// resolved and classified once, with parameter placeholders kept as
// unbound expr.Slot nodes. A Skeleton is immutable after construction —
// every tree it holds is shared read-only by concurrent Bind calls, which
// clone only the slot-bearing paths while re-binding.
type Skeleton struct {
	tables     []tableEntry
	scope      []colInfo
	pushed     [][]expr.Expr // per table; conjuncts in TABLE ordinals, textual order
	edges      []joinEdge
	residual   []expr.Expr // scope ordinals
	scanCols   [][]int     // per table; table ordinals, ascending
	items      []projItem
	aggs       []*expr.Aggregate // args in scope ordinals
	groupBy    []expr.Expr       // scope ordinals
	aggregated bool
	orderBy    []exec.SortKey // over the projection output
	limit      int64
}

// BuildSkeleton resolves and classifies sel once, keeping placeholders as
// re-bindable slots.
func BuildSkeleton(sel *sqlparse.Select, r Resolver) (*Skeleton, error) {
	skeletonBuilds.Add(1)
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: query has no FROM clause")
	}
	if len(sel.Items) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	b := &builder{resolver: r}

	// Resolve tables and build the scope.
	seen := map[string]bool{}
	for _, ref := range sel.From {
		tbl, err := b.resolver.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Name
		}
		if seen[alias] {
			return nil, fmt.Errorf("plan: duplicate table alias %q", alias)
		}
		seen[alias] = true
		ti := len(b.tables)
		b.tables = append(b.tables, tableEntry{ref: ref, tbl: tbl, alias: alias, offset: len(b.scope)})
		for ord, c := range tbl.Columns() {
			b.scope = append(b.scope, colInfo{
				table: ti, ordinal: ord, name: c.Name, alias: alias, typ: c.Type,
			})
		}
	}

	// Resolve WHERE into conjuncts over scope ordinals. OR conjuncts get
	// their common factors hoisted (TPC-H Q19 repeats the join predicate
	// inside each OR branch; without factoring it the join would become a
	// cross product).
	var whereConjuncts []expr.Expr
	if sel.Where != nil {
		w, err := b.convertScalar(sel.Where)
		if err != nil {
			return nil, err
		}
		for _, c := range expr.SplitConjuncts(w) {
			whereConjuncts = append(whereConjuncts, factorOr(c)...)
		}
	}

	// Expand * and resolve select items, collecting aggregates.
	items, aggs, groupBy, err := b.resolveProjection(sel)
	if err != nil {
		return nil, err
	}

	// Classify conjuncts: single-table (pushed into scans), equi-join
	// edges, residual (everything else).
	pushed := make([][]expr.Expr, len(b.tables))
	var edges []joinEdge
	var residual []expr.Expr
	for _, c := range whereConjuncts {
		if ti, single := b.singleTable(c); single {
			pushed[ti] = append(pushed[ti], c)
			continue
		}
		if e, ok := b.asJoinEdge(c); ok {
			edges = append(edges, e)
			continue
		}
		residual = append(residual, c)
	}

	// Columns the scans must OUTPUT (pushed-filter columns are consumed
	// inside the scans and excluded unless needed again upstream — that is
	// the projectivity pushdown Fig 8(b) exercises).
	needed := newColSet(len(b.scope))
	for _, g := range groupBy {
		needed.addExpr(g)
	}
	for _, a := range aggs {
		if a.Arg != nil {
			needed.addExpr(a.Arg)
		}
	}
	if len(aggs) == 0 && len(groupBy) == 0 {
		for _, it := range items {
			needed.addExpr(it.e)
		}
	}
	for _, e := range edges {
		needed.add(e.lcol)
		needed.add(e.rcol)
	}
	for _, c := range residual {
		needed.addExpr(c)
	}

	// Per-table scan column lists (table ordinals, ascending).
	scanCols := make([][]int, len(b.tables))
	for sc, used := range needed.set {
		if used {
			ti := b.scope[sc].table
			scanCols[ti] = append(scanCols[ti], b.scope[sc].ordinal)
		}
	}
	for ti := range scanCols {
		sort.Ints(scanCols[ti])
		if len(scanCols[ti]) == 0 {
			// A scan must emit at least one column so joins and COUNT(*)
			// see the right multiplicity; pick the first filter column or
			// column 0.
			ord := 0
			if len(pushed[ti]) > 0 {
				if cols := expr.DistinctColumns(pushed[ti][0]); len(cols) > 0 {
					ord = b.scope[cols[0]].ordinal
				}
			}
			scanCols[ti] = []int{ord}
		}
	}

	// Remap pushed conjuncts from scope to table ordinals; they are handed
	// to the scans (and to selectivity estimation) in that space.
	for ti, te := range b.tables {
		toTable := make(map[int]int)
		for ord := range te.tbl.Columns() {
			toTable[te.offset+ord] = ord
		}
		for i, c := range pushed[ti] {
			rc, err := expr.Remap(c, toTable)
			if err != nil {
				return nil, err
			}
			pushed[ti][i] = rc
		}
	}

	sk := &Skeleton{
		tables:     b.tables,
		scope:      b.scope,
		pushed:     pushed,
		edges:      edges,
		residual:   residual,
		scanCols:   scanCols,
		items:      items,
		aggs:       aggs,
		groupBy:    groupBy,
		aggregated: len(aggs) > 0 || len(groupBy) > 0,
		limit:      sel.Limit,
	}
	if len(sel.OrderBy) > 0 {
		keys, err := b.resolveOrderBy(sel.OrderBy, sel, items)
		if err != nil {
			return nil, err
		}
		sk.orderBy = keys
	}
	return sk, nil
}

// binder is the per-execution state of Skeleton.Bind.
type binder struct {
	sk   *Skeleton
	opts Options
	tbls []Table // access methods re-resolved for this execution

	// Profiling (nil when the context carries no qtrace profile — the
	// default): curSpan tracks the span of the current pipeline top as
	// operators stack, so each wrapper's span parents the one below.
	prof    *qtrace.Profile
	curSpan *qtrace.Span
}

// Bind assembles an executable plan from the skeleton for one execution:
// literal slots re-bind to opts' parameter values, conjunct order and join
// order re-derive from the bound values and the current statistics, and
// supported shapes attach compiled kernels. Table access methods are
// re-resolved through r each execution — a cached skeleton must not pin a
// handle the engine has since replaced (a load-first relation dropped by
// Invalidate re-loads on the next lookup). The skeleton itself is only
// read — Bind is safe to call concurrently.
func (sk *Skeleton) Bind(r Resolver, opts Options) (*Result, error) {
	tbls := make([]Table, len(sk.tables))
	for i, te := range sk.tables {
		tbl, err := r.Table(te.ref.Name)
		if err != nil {
			return nil, err
		}
		tbls[i] = tbl
	}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	bi := &binder{sk: sk, opts: opts, tbls: tbls, prof: qtrace.FromContext(opts.Ctx)}
	return bi.bind()
}

func (bi *binder) bind() (*Result, error) {
	sk := bi.sk
	kc := bi.opts.KernelCache

	// Bind the pushed conjuncts (fresh slices per execution: conjunct order
	// is execution-specific, the skeleton's stays textual).
	pushed := make([][]expr.Expr, len(sk.tables))
	for ti, list := range sk.pushed {
		bound, err := bi.bindList(list)
		if err != nil {
			return nil, err
		}
		pushed[ti] = bound
	}

	root, layout, err := bi.buildJoinTree(pushed)
	if err != nil {
		return nil, err
	}
	// The scan root, when it accepts a row budget (a join never does).
	leaf, _ := root.(exec.RowBudgeter)

	// Residual filter (multi-table, non-equi). A residual filter breaks
	// the live-row-count correspondence between the leaf and the pipeline
	// top, so LIMIT pushdown must not reach past it.
	if len(sk.residual) > 0 {
		bound, err := bi.bindList(sk.residual)
		if err != nil {
			return nil, err
		}
		re, err := expr.Remap(expr.JoinConjuncts(bound), layout)
		if err != nil {
			return nil, err
		}
		leaf = nil
		re = kc.Predicate(re)
		ctr := qtrace.CtrGenericBatches
		if hasKernel(re) {
			ctr = qtrace.CtrKernelBatches
		}
		root = bi.span("filter", exec.NewFilter(root, re), ctr, true, bi.curSpan)
	}

	// Aggregation. Select items were rewritten during resolution to
	// reference the aggregate output layout [groups..., aggs...].
	if sk.aggregated {
		root, err = bi.buildAggregate(root, layout)
		if err != nil {
			return nil, err
		}
		leaf = nil
	}

	// Final projection. Output types re-derive from the bound expressions,
	// so a parameter in the select list types after its value. A bare
	// column reference aliases its input column; every other output binds
	// through the kernel cache.
	outCols := make([]exec.Col, len(sk.items))
	outExprs := make([]expr.Expr, len(sk.items))
	for i, it := range sk.items {
		e, err := bi.bindExpr(it.e)
		if err != nil {
			return nil, err
		}
		if !sk.aggregated {
			e, err = expr.Remap(e, layout)
			if err != nil {
				return nil, err
			}
		}
		typ := expr.StaticType(e)
		if typ == datum.Unknown {
			typ = it.typ
		}
		if _, ok := e.(*expr.ColRef); !ok {
			e = kc.Value(e)
		}
		outExprs[i] = e
		outCols[i] = exec.Col{Name: it.name, Type: typ}
	}
	ctr := qtrace.CtrGenericBatches
	if kc != nil && !interprets(outExprs) {
		ctr = qtrace.CtrKernelBatches
	}
	root = bi.span("project", exec.NewProject(root, outExprs, outCols), ctr, true, bi.curSpan)

	// ORDER BY over the projection output.
	if len(sk.orderBy) > 0 {
		root = bi.span("sort", bi.sized(exec.NewSort(root, sk.orderBy)), 0, false, bi.curSpan)
		leaf = nil
	}

	// LIMIT. When only projections sit between the scan leaf and the limit
	// (conjuncts evaluated inside the scan), the limit also flows into the
	// leaf as a row budget: the scan stops at the limit instead of
	// materializing one full batch past it.
	if sk.limit >= 0 {
		if leaf != nil {
			leaf.SetRowBudget(sk.limit)
		}
		root = bi.span("limit", exec.NewLimit(root, sk.limit), 0, false, bi.curSpan)
	}
	if bi.prof != nil {
		bi.prof.SetRoot(bi.curSpan)
	}
	return &Result{Root: root, Cols: outCols}, nil
}

// bindExpr re-binds one skeleton tree's slots to this execution's values;
// slot-free trees pass through unchanged (shared with the skeleton).
func (bi *binder) bindExpr(e expr.Expr) (expr.Expr, error) {
	return expr.BindSlots(e, bi.bindSlot)
}

// bindList binds a slice of trees into a fresh slice.
func (bi *binder) bindList(list []expr.Expr) ([]expr.Expr, error) {
	if len(list) == 0 {
		return nil, nil
	}
	out := make([]expr.Expr, len(list))
	for i, e := range list {
		be, err := bi.bindExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = be
	}
	return out, nil
}

// bindSlot resolves one parameter slot against the bindings of this
// execution.
func (bi *binder) bindSlot(s *expr.Slot) (datum.Datum, error) {
	if s.Name != "" {
		d, ok := bi.opts.NamedParams[s.Name]
		if !ok {
			return datum.Datum{}, fmt.Errorf("plan: no binding for parameter :%s", s.Name)
		}
		return d, nil
	}
	if s.Ordinal < 1 || s.Ordinal > len(bi.opts.Params) {
		return datum.Datum{}, fmt.Errorf("plan: no binding for parameter $%d (have %d)", s.Ordinal, len(bi.opts.Params))
	}
	return bi.opts.Params[s.Ordinal-1], nil
}
