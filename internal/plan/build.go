package plan

import (
	"fmt"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// buildJoinTree creates the scan leaves and joins them into a left-deep
// tree. pushed holds this execution's bound per-table conjuncts in table
// ordinals; the skeleton supplies the scan column lists. It returns the
// root operator and the layout mapping scope ordinals to positions in the
// operator's output rows.
func (bi *binder) buildJoinTree(pushed [][]expr.Expr) (exec.Operator, map[int]int, error) {
	sk := bi.sk
	n := len(sk.tables)
	scanCols := sk.scanCols

	// Estimated output cardinality per table (after pushed filters).
	est := make([]float64, n)
	for ti := range sk.tables {
		est[ti] = bi.estimateTable(ti, pushed[ti])
	}

	// Order pushed conjuncts: most selective first when stats are on
	// (drives the in-situ scan's selective parsing order; see Fig 12).
	for ti := range pushed {
		bi.orderConjuncts(ti, pushed[ti])
	}

	// Attach compiled filter kernels to supported conjunct shapes; the
	// scans' batch paths (cache-scan selection narrowing) run them in
	// place of the generic tree walk. Ordering and selectivity estimation
	// ran on the unwrapped trees above.
	if kc := bi.opts.KernelCache; kc != nil {
		for ti := range pushed {
			for i, c := range pushed[ti] {
				pushed[ti][i] = kc.Predicate(c)
			}
		}
	}

	// Build the scan leaves (span-wrapped when profiling; the wrapper keeps
	// the dual row/batch interface and RowBudgeter pushdown intact). A hash
	// join reads its inputs batch-at-a-time whenever they offer batches, so
	// with vectorization off the scans below a join are pinned to their row
	// path: the join then batches rows the scan produced one Next at a time.
	scans := make([]exec.Operator, n)
	scanSpans := make([]*qtrace.Span, n)
	for ti := range sk.tables {
		op, err := bi.tbls[ti].Scan(bi.opts.Ctx, scanCols[ti], pushed[ti])
		if err != nil {
			return nil, nil, err
		}
		scans[ti], scanSpans[ti] = bi.spanDual("scan "+sk.tables[ti].alias, op)
		if sd, ok := scans[ti].(*exec.SpanDual); ok && hasKernel(pushed[ti]...) {
			// Batches the scan narrows with a compiled conjunct count as
			// kernel batches (row pulls count nothing).
			sd.CountBatches(bi.prof, qtrace.CtrKernelBatches)
		}
		if n > 1 && !bi.opts.Vectorize {
			scans[ti] = exec.NewBatchRows(exec.NewRowBatcher(scans[ti], 0))
		}
	}

	// Join order: with stats, greedily grow from the smallest estimated
	// table through connected edges; without stats, textual order.
	edges := sk.edges
	order := make([]int, 0, n)
	inSet := make([]bool, n)
	pick := func() int {
		best := -1
		for ti := 0; ti < n; ti++ {
			if inSet[ti] {
				continue
			}
			connected := len(order) == 0
			for _, e := range edges {
				if (inSet[e.lt] && e.rt == ti) || (inSet[e.rt] && e.lt == ti) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if best < 0 || est[ti] < est[best] {
				best = ti
			}
		}
		if best < 0 {
			// No connected table left: fall back to the smallest remaining
			// (cross join).
			for ti := 0; ti < n; ti++ {
				if !inSet[ti] && (best < 0 || est[ti] < est[best]) {
					best = ti
				}
			}
		}
		return best
	}
	if bi.opts.UseStats {
		for len(order) < n {
			ti := pick()
			inSet[ti] = true
			order = append(order, ti)
		}
	} else {
		for ti := 0; ti < n; ti++ {
			order = append(order, ti)
			inSet[ti] = true
		}
	}

	// layout: scope ordinal -> position in the current operator output.
	layout := make(map[int]int)
	addTable := func(ti int, base int) {
		for i, ord := range scanCols[ti] {
			layout[sk.tables[ti].offset+ord] = base + i
		}
	}

	root := scans[order[0]]
	bi.curSpan = scanSpans[order[0]]
	addTable(order[0], 0)
	width := len(scanCols[order[0]])
	treeEst := est[order[0]]
	joined := map[int]bool{order[0]: true}

	for _, ti := range order[1:] {
		// Collect the equi-join keys between the tree and table ti.
		var treeKeys, newKeys []expr.Expr
		for _, e := range edges {
			var treeCol, newCol int
			switch {
			case joined[e.lt] && e.rt == ti:
				treeCol, newCol = e.lcol, e.rcol
			case joined[e.rt] && e.lt == ti:
				treeCol, newCol = e.rcol, e.lcol
			default:
				continue
			}
			tp, ok := layout[treeCol]
			if !ok {
				return nil, nil, fmt.Errorf("plan: join key %d missing from layout", treeCol)
			}
			np := indexOf(scanCols[ti], sk.scope[newCol].ordinal)
			if np < 0 {
				return nil, nil, fmt.Errorf("plan: join key %d missing from scan of %s", newCol, sk.tables[ti].alias)
			}
			treeKeys = append(treeKeys, &expr.ColRef{Index: tp})
			newKeys = append(newKeys, &expr.ColRef{Index: np})
		}

		newWidth := len(scanCols[ti])
		buildNew := bi.opts.UseStats && est[ti] <= treeEst
		if buildNew {
			// Build on the new (smaller) table; output = new ++ tree.
			root, bi.curSpan = bi.spanDual("hash join",
				exec.NewHashJoin(scans[ti], root, newKeys, treeKeys),
				scanSpans[ti], bi.curSpan)
			for sc, pos := range layout {
				layout[sc] = pos + newWidth
			}
			addTable(ti, 0)
		} else {
			// Build on the accumulated tree; output = tree ++ new.
			root, bi.curSpan = bi.spanDual("hash join",
				exec.NewHashJoin(root, scans[ti], treeKeys, newKeys),
				bi.curSpan, scanSpans[ti])
			addTable(ti, width)
		}
		width += newWidth
		joined[ti] = true
		if est[ti] < treeEst {
			treeEst = est[ti] // a selective FK join keeps the smaller side's scale
		}
	}
	return root, layout, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// buildAggregate plans the aggregation above root (when broot is non-nil,
// root is its row-adapter mirror: hash aggregation then consumes the
// batches directly, sort aggregation reads the mirrored rows). The choice
// between hash and sort aggregation is statistics-driven: without stats
// the planner must assume arbitrarily many groups and picks the sort
// strategy, with stats it pre-sizes a hash table (Fig 12). Group and
// aggregate expressions re-bind per execution.
func (bi *binder) buildAggregate(root exec.Operator, broot exec.BatchOperator, layout map[int]int) (exec.Operator, error) {
	sk := bi.sk
	// A global aggregate has exactly one group; the hash/sort strategy
	// question only exists for GROUP BY queries.
	sortAgg := !bi.opts.UseStats && len(sk.groupBy) > 0
	// Hash aggregation over batches binds its arguments through the kernel
	// cache, as pushed conjuncts are bound: a compiled value program hands
	// the aggregate a typed vector per batch.
	kc := bi.opts.KernelCache
	if sortAgg || broot == nil {
		kc = nil
	}
	rg := make([]expr.Expr, len(sk.groupBy))
	for i, g := range sk.groupBy {
		bg, err := bi.bindExpr(g)
		if err != nil {
			return nil, err
		}
		e, err := expr.Remap(bg, layout)
		if err != nil {
			return nil, err
		}
		rg[i] = e
	}
	ra := make([]*expr.Aggregate, len(sk.aggs))
	for i, a := range sk.aggs {
		na := &expr.Aggregate{Kind: a.Kind, Distinct: a.Distinct}
		if a.Arg != nil {
			ba, err := bi.bindExpr(a.Arg)
			if err != nil {
				return nil, err
			}
			e, err := expr.Remap(ba, layout)
			if err != nil {
				return nil, err
			}
			na.Arg = kc.Value(e)
		}
		ra[i] = na
	}
	cols := make([]exec.Col, 0, len(rg)+len(ra))
	for i, g := range sk.groupBy {
		cols = append(cols, exec.Col{Name: fmt.Sprintf("group%d", i), Type: expr.StaticType(g)})
	}
	for i, a := range sk.aggs {
		cols = append(cols, exec.Col{Name: a.String(), Type: aggResultType(ra[i])})
	}

	if sortAgg {
		return bi.spanRow("sort aggregate", exec.NewSortAgg(root, rg, ra, cols), bi.curSpan), nil
	}
	h := exec.NewHashAgg(root, rg, ra, cols)
	if broot != nil {
		h.SetBatchInput(broot)
	}
	if hint := bi.estimateGroups(sk.groupBy); hint > 0 {
		h.SizeHint = hint
	}
	h.CountBatches(bi.prof) // a nil profile counts nothing
	return bi.spanRow("hash aggregate", h, bi.curSpan), nil
}

// estimateGroups pre-sizes the aggregation hash table: the product of the
// grouping columns' distinct counts, bounded by the row count of any table
// contributing a grouping column (grouping cannot produce more groups than
// input rows) and by a fixed cap — an oversized hint would cost more to
// allocate and clear than it saves.
func (bi *binder) estimateGroups(groupBy []expr.Expr) int {
	const hintCap = 1 << 16
	sk := bi.sk
	total := 1.0
	bound := -1.0
	for _, g := range groupBy {
		c, ok := g.(*expr.ColRef)
		if !ok {
			return 0
		}
		info := sk.scope[c.Index]
		tbl := bi.tbls[info.table]
		st := tbl.Stats()
		if st == nil || !st.Has(info.ordinal) {
			return 0
		}
		total *= st.Col(info.ordinal).Distinct
		rows := float64(tbl.RowCount())
		if rows < 0 && st.RowCount() > 0 {
			rows = float64(st.RowCount())
		}
		if rows >= 0 && (bound < 0 || rows > bound) {
			bound = rows
		}
	}
	if bound >= 0 && total > bound {
		total = bound
	}
	if total > hintCap {
		return hintCap
	}
	return int(total)
}
