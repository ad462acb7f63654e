package plan

import (
	"fmt"
	"strings"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/sqlparse"
)

// lookupColumn resolves a possibly qualified identifier to a scope ordinal.
func (b *builder) lookupColumn(id *sqlparse.Ident) (int, error) {
	found := -1
	for i, c := range b.scope {
		if c.name != id.Name {
			continue
		}
		if id.Table != "" && c.alias != id.Table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: column %q is ambiguous", id)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: column %q not found", id)
	}
	return found, nil
}

// convertScalar converts an AST node into an expression over scope
// ordinals. Aggregate calls are rejected.
func (b *builder) convertScalar(n sqlparse.Node) (expr.Expr, error) {
	switch node := n.(type) {
	case *sqlparse.Ident:
		idx, err := b.lookupColumn(node)
		if err != nil {
			return nil, err
		}
		c := b.scope[idx]
		return &expr.ColRef{Index: idx, Name: c.alias + "." + c.name, Type: c.typ}, nil
	case *sqlparse.IntLit:
		return &expr.Const{D: datum.NewInt(node.V)}, nil
	case *sqlparse.FloatLit:
		return &expr.Const{D: datum.NewFloat(node.V)}, nil
	case *sqlparse.StringLit:
		return &expr.Const{D: datum.NewText(node.V)}, nil
	case *sqlparse.DateLit:
		d, err := datum.DateFromString(node.V)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		return &expr.Const{D: d}, nil
	case *sqlparse.IntervalLit:
		// Intervals act as day counts in date arithmetic.
		return &expr.Const{D: datum.NewInt(node.Days)}, nil
	case *sqlparse.Placeholder:
		if b.immediate == nil {
			// Skeleton mode: the placeholder survives resolution as a slot
			// and re-binds per execution.
			return &expr.Slot{Ordinal: node.Ordinal, Name: node.Name}, nil
		}
		d, err := b.bindPlaceholder(node)
		if err != nil {
			return nil, err
		}
		return &expr.Const{D: d}, nil
	case *sqlparse.Binary:
		l, err := b.convertScalar(node.L)
		if err != nil {
			return nil, err
		}
		r, err := b.convertScalar(node.R)
		if err != nil {
			return nil, err
		}
		op, err := binOp(node.Op)
		if err != nil {
			return nil, err
		}
		return expr.FoldConst(&expr.BinOp{Op: op, L: l, R: r}), nil
	case *sqlparse.Unary:
		e, err := b.convertScalar(node.E)
		if err != nil {
			return nil, err
		}
		if node.Op == "NOT" {
			return &expr.Not{E: e}, nil
		}
		return &expr.Neg{E: e}, nil
	case *sqlparse.Between:
		e, err := b.convertScalar(node.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.convertScalar(node.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.convertScalar(node.Hi)
		if err != nil {
			return nil, err
		}
		var out expr.Expr = &expr.Between{E: e, Lo: lo, Hi: hi}
		if node.Negate {
			out = &expr.Not{E: out}
		}
		return out, nil
	case *sqlparse.In:
		e, err := b.convertScalar(node.E)
		if err != nil {
			return nil, err
		}
		// IN lists hold literal values, not expressions; placeholders are
		// carried through the skeleton in the node's slot vector and
		// concatenated onto the literal list at bind time, so a prepared
		// "x IN ($1, $2)" shares one cached skeleton across executions.
		list := make([]datum.Datum, 0, len(node.List))
		var slots []*expr.Slot
		for _, item := range node.List {
			ce, err := b.convertScalar(item)
			if err != nil {
				return nil, err
			}
			switch c := ce.(type) {
			case *expr.Slot:
				slots = append(slots, c)
			case *expr.Const:
				list = append(list, c.D)
			default:
				return nil, fmt.Errorf("plan: IN list elements must be literals, got %s", item)
			}
		}
		return &expr.In{E: e, List: list, Slots: slots, Negate: node.Negate}, nil
	case *sqlparse.Like:
		e, err := b.convertScalar(node.E)
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: e, Pattern: node.Pattern, Negate: node.Negate}, nil
	case *sqlparse.IsNull:
		e, err := b.convertScalar(node.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: e, Negate: node.Negate}, nil
	case *sqlparse.Case:
		out := &expr.Case{}
		for _, w := range node.Whens {
			cond, err := b.convertScalar(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := b.convertScalar(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, expr.When{Cond: cond, Then: then})
		}
		if node.Else != nil {
			els, err := b.convertScalar(node.Else)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	case *sqlparse.FuncCall:
		if _, isAgg := expr.ParseAggKind(node.Name); isAgg {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", node.Name)
		}
		return nil, fmt.Errorf("plan: unknown function %q", node.Name)
	default:
		return nil, fmt.Errorf("plan: cannot convert %T", n)
	}
}

// bindPlaceholder resolves a parameter placeholder against the immediate
// bindings (one-shot Build). Binding during planning (late binding) means
// the literal value participates in every statistics-driven decision, so
// re-executing a prepared statement with different values re-optimizes for
// them; the skeleton path achieves the same through Slot nodes bound in
// Skeleton.Bind.
func (b *builder) bindPlaceholder(p *sqlparse.Placeholder) (datum.Datum, error) {
	return resolveParam(p.Ordinal, p.Name, b.immediate.params, b.immediate.named)
}

// resolveParam looks one parameter up in an execution's bindings — the
// single definition both binding paths (immediate placeholders and
// skeleton slots) share, so their semantics and errors cannot diverge.
func resolveParam(ordinal int, name string, params []datum.Datum, named map[string]datum.Datum) (datum.Datum, error) {
	if name != "" {
		d, ok := named[name]
		if !ok {
			return datum.Datum{}, fmt.Errorf("plan: no binding for parameter :%s", name)
		}
		return d, nil
	}
	if ordinal < 1 || ordinal > len(params) {
		return datum.Datum{}, fmt.Errorf("plan: no binding for parameter $%d (have %d)", ordinal, len(params))
	}
	return params[ordinal-1], nil
}

func binOp(op string) (expr.Op, error) {
	switch op {
	case "+":
		return expr.Add, nil
	case "-":
		return expr.Sub, nil
	case "*":
		return expr.Mul, nil
	case "/":
		return expr.Div, nil
	case "=":
		return expr.Eq, nil
	case "<>":
		return expr.Ne, nil
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case ">":
		return expr.Gt, nil
	case ">=":
		return expr.Ge, nil
	case "AND":
		return expr.And, nil
	case "OR":
		return expr.Or, nil
	default:
		return 0, fmt.Errorf("plan: unknown operator %q", op)
	}
}

// projItem is one resolved output column. For aggregated queries e
// references the aggregate output layout [groups..., aggs...]; otherwise it
// references scope ordinals.
type projItem struct {
	e    expr.Expr
	ast  sqlparse.Node // original AST (nil for expanded stars)
	name string
	typ  datum.Type
}

// aggKey deduplicates aggregate calls by kind, argument text and DISTINCT.
type aggKey struct {
	kind     expr.AggKind
	arg      string
	distinct bool
}

// resolveProjection expands stars, resolves select items, and — when the
// query aggregates — rewrites them over the aggregate output layout.
func (b *builder) resolveProjection(sel *sqlparse.Select) ([]projItem, []*expr.Aggregate, []expr.Expr, error) {
	// Resolve GROUP BY first; select items may reference the same exprs.
	var groupBy []expr.Expr
	for _, g := range sel.GroupBy {
		e, err := b.convertScalar(g)
		if err != nil {
			return nil, nil, nil, err
		}
		groupBy = append(groupBy, e)
	}

	hasAgg := false
	for _, it := range sel.Items {
		if !it.Star && containsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	aggregated := hasAgg || len(groupBy) > 0

	var items []projItem
	var aggs []*expr.Aggregate
	aggIndex := map[aggKey]int{}

	for _, it := range sel.Items {
		if it.Star {
			if aggregated {
				return nil, nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			for i, c := range b.scope {
				items = append(items, projItem{
					e:    &expr.ColRef{Index: i, Name: c.name, Type: c.typ},
					name: c.name,
					typ:  c.typ,
				})
			}
			continue
		}
		var e expr.Expr
		var err error
		if aggregated {
			e, err = b.convertAggregated(it.Expr, groupBy, &aggs, aggIndex)
		} else {
			e, err = b.convertScalar(it.Expr)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		name := it.Alias
		if name == "" {
			if id, ok := it.Expr.(*sqlparse.Ident); ok {
				name = id.Name
			} else {
				name = it.Expr.String()
			}
		}
		items = append(items, projItem{e: e, ast: it.Expr, name: name, typ: expr.StaticType(e)})
	}
	return items, aggs, groupBy, nil
}

// containsAggregate walks the AST looking for aggregate calls.
func containsAggregate(n sqlparse.Node) bool {
	switch node := n.(type) {
	case *sqlparse.FuncCall:
		_, isAgg := expr.ParseAggKind(node.Name)
		return isAgg
	case *sqlparse.Binary:
		return containsAggregate(node.L) || containsAggregate(node.R)
	case *sqlparse.Unary:
		return containsAggregate(node.E)
	case *sqlparse.Between:
		return containsAggregate(node.E) || containsAggregate(node.Lo) || containsAggregate(node.Hi)
	case *sqlparse.In:
		return containsAggregate(node.E)
	case *sqlparse.Like:
		return containsAggregate(node.E)
	case *sqlparse.IsNull:
		return containsAggregate(node.E)
	case *sqlparse.Case:
		for _, w := range node.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Then) {
				return true
			}
		}
		return node.Else != nil && containsAggregate(node.Else)
	default:
		return false
	}
}

// convertAggregated resolves a select item of an aggregated query. The
// result references the aggregate operator's output layout:
// columns [0, len(groupBy)) are the group keys, followed by aggregates.
func (b *builder) convertAggregated(n sqlparse.Node, groupBy []expr.Expr, aggs *[]*expr.Aggregate, aggIndex map[aggKey]int) (expr.Expr, error) {
	// Aggregate call: resolve argument over the scope.
	if fc, ok := n.(*sqlparse.FuncCall); ok {
		if kind, isAgg := expr.ParseAggKind(fc.Name); isAgg {
			var arg expr.Expr
			if fc.Star {
				kind = expr.AggCountStar
			} else {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("plan: %s takes exactly one argument", fc.Name)
				}
				var err error
				arg, err = b.convertScalar(fc.Args[0])
				if err != nil {
					return nil, err
				}
			}
			key := aggKey{kind: kind, distinct: fc.Distinct}
			if arg != nil {
				key.arg = arg.String()
			}
			idx, ok := aggIndex[key]
			if !ok {
				idx = len(*aggs)
				aggIndex[key] = idx
				*aggs = append(*aggs, &expr.Aggregate{Kind: kind, Arg: arg, Distinct: fc.Distinct})
			}
			a := (*aggs)[idx]
			return &expr.ColRef{
				Index: len(groupBy) + idx,
				Name:  a.String(),
				Type:  aggResultType(a),
			}, nil
		}
		return nil, fmt.Errorf("plan: unknown function %q", fc.Name)
	}

	// Non-aggregate node: if it resolves to a group-by expression, use the
	// group column; literals pass through; otherwise recurse.
	if !containsAggregate(n) {
		se, err := b.convertScalar(n)
		if err != nil {
			return nil, err
		}
		if len(expr.DistinctColumns(se)) == 0 {
			return se, nil // pure literal
		}
		for gi, g := range groupBy {
			if g.String() == se.String() {
				return &expr.ColRef{Index: gi, Name: se.String(), Type: expr.StaticType(g)}, nil
			}
		}
		if _, isIdent := n.(*sqlparse.Ident); isIdent {
			return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", n)
		}
		// Composite: fall through and recurse into children.
	}
	switch node := n.(type) {
	case *sqlparse.Binary:
		l, err := b.convertAggregated(node.L, groupBy, aggs, aggIndex)
		if err != nil {
			return nil, err
		}
		r, err := b.convertAggregated(node.R, groupBy, aggs, aggIndex)
		if err != nil {
			return nil, err
		}
		op, err := binOp(node.Op)
		if err != nil {
			return nil, err
		}
		return &expr.BinOp{Op: op, L: l, R: r}, nil
	case *sqlparse.Unary:
		e, err := b.convertAggregated(node.E, groupBy, aggs, aggIndex)
		if err != nil {
			return nil, err
		}
		if node.Op == "NOT" {
			return &expr.Not{E: e}, nil
		}
		return &expr.Neg{E: e}, nil
	case *sqlparse.Case:
		out := &expr.Case{}
		for _, w := range node.Whens {
			cond, err := b.convertAggregated(w.Cond, groupBy, aggs, aggIndex)
			if err != nil {
				return nil, err
			}
			then, err := b.convertAggregated(w.Then, groupBy, aggs, aggIndex)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, expr.When{Cond: cond, Then: then})
		}
		if node.Else != nil {
			els, err := b.convertAggregated(node.Else, groupBy, aggs, aggIndex)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	default:
		return nil, fmt.Errorf("plan: expression %s mixes aggregated and non-aggregated columns", n)
	}
}

// aggResultType follows SQL typing: AVG is float, COUNT is int, SUM/MIN/MAX
// follow the argument.
func aggResultType(a *expr.Aggregate) datum.Type {
	switch a.Kind {
	case expr.AggCount, expr.AggCountStar:
		return datum.Int
	case expr.AggAvg:
		return datum.Float
	default:
		if a.Arg != nil {
			return expr.StaticType(a.Arg)
		}
		return datum.Int
	}
}

// resolveOrderBy maps ORDER BY items to sort keys over the projection
// output: by alias, by output ordinal (ORDER BY 2), or by matching the
// item's AST text against a select item.
func (b *builder) resolveOrderBy(order []sqlparse.OrderItem, sel *sqlparse.Select, items []projItem) ([]exec.SortKey, error) {
	keys := make([]exec.SortKey, 0, len(order))
	for _, o := range order {
		idx := -1
		switch node := o.Expr.(type) {
		case *sqlparse.IntLit:
			if node.V < 1 || node.V > int64(len(items)) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", node.V)
			}
			idx = int(node.V - 1)
		case *sqlparse.Ident:
			for i, it := range items {
				if strings.EqualFold(it.name, node.Name) && node.Table == "" {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			text := o.Expr.String()
			for i, it := range items {
				if it.ast != nil && it.ast.String() == text {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: ORDER BY expression %s must appear in the select list", o.Expr)
		}
		keys = append(keys, exec.SortKey{
			E:    &expr.ColRef{Index: idx, Name: items[idx].name, Type: items[idx].typ},
			Desc: o.Desc,
		})
	}
	return keys, nil
}
