// Package plan turns parsed SQL into executable operator trees. It owns
// name resolution, predicate and projection pushdown, join ordering, and
// the statistics-driven choices (conjunct ordering, join build side,
// aggregation strategy) whose impact the paper measures in Fig 12.
//
// Planning is split into two phases so high-QPS parameterized statements
// do not re-pay the parameter-independent work per execution:
//
//   - BuildSkeleton resolves and classifies the statement once — tables,
//     scope, WHERE conjuncts split and classified (pushed / join edge /
//     residual), projection and aggregate resolution, scan column lists —
//     with parameter placeholders kept as unbound expr.Slot nodes. The
//     resulting Skeleton is immutable and shared by concurrent executions
//     (internal/core caches it alongside the parsed statement).
//   - Skeleton.Bind re-binds the literal slots to one execution's values,
//     re-orders conjuncts and re-picks join order by the bound values
//     (late binding keeps every statistics-driven decision specific to the
//     actual parameters), compiles filter/projection kernels for supported
//     shapes, and assembles the operator tree.
//
// The planner is engine-agnostic: raw in-situ tables (internal/core) and
// loaded heap tables (internal/storage) both appear behind the Table
// interface. Predicates pushed into Table.Scan reference *table ordinals*,
// so an in-situ scan can use them to drive selective tokenizing/parsing,
// while a heap scan simply evaluates them against decoded tuples.
package plan

import (
	"context"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/kernel"
	"nodb/internal/schema"
	"nodb/internal/sqlparse"
	"nodb/internal/stats"
)

// Table is an access method the planner can scan. Implementations exist
// for in-situ raw files and loaded heap files.
type Table interface {
	// Name returns the table name (lower case).
	Name() string
	// Columns returns the schema in declaration order.
	Columns() []schema.Column
	// Stats returns collected statistics, or nil when none exist yet.
	Stats() *stats.Table
	// RowCount returns the known row count, or -1 when unknown.
	RowCount() int64
	// Scan creates a leaf operator emitting the table ordinals in cols
	// (in that order) for tuples accepted by every conjunct. Conjunct
	// expressions reference table ordinals; the slice is pre-ordered by
	// the planner (most selective first when statistics are available).
	// ctx bounds the execution the operator belongs to: implementations
	// observe its cancellation at scan-progress boundaries and abort the
	// pass with ctx.Err().
	Scan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error)
}

// Resolver maps table names to access methods.
type Resolver interface {
	Table(name string) (Table, error)
}

// Options tune the planner.
type Options struct {
	// UseStats enables statistics-driven decisions. When false the planner
	// falls back to textual conjunct order, textual join order and
	// sort-based aggregation — the conservative plan shapes a DBMS picks
	// without ANALYZE data (Fig 12's "w/o statistics" line).
	UseStats bool
	// Vectorize lets the operators the planner builds — hash joins,
	// aggregation output and sorts — emit batches of up to
	// exec.DefaultBatchSize rows. When false they emit one-row batches,
	// matching scans run at batch size 1 (the engine's DisableVectorized).
	// Every operator speaks batches either way, and results are identical.
	Vectorize bool
	// KernelCache, when non-nil, enables the query-shape kernel compiler
	// (internal/kernel): supported filter conjuncts, aggregate arguments and
	// projection outputs attach compiled type-specialized batch closures,
	// which run in place of the row interpreter. Results are identical;
	// nil disables compilation.
	KernelCache *kernel.Cache
	// Ctx bounds the execution the plan is built for; it flows into every
	// scan leaf so a cancelled context aborts running scans promptly. Nil
	// means context.Background().
	Ctx context.Context
	// Params bind the statement's positional placeholders: Params[i-1] is
	// the value of $i (and of the i-th ?). Binding happens during planning
	// — placeholders become ordinary literals — so every statistics-driven
	// decision (conjunct order, selective-parsing field sets, join order)
	// is made for the actual values of this execution, not for a generic
	// plan shape.
	Params []datum.Datum
	// NamedParams bind :name placeholders (keys are lower-case).
	NamedParams map[string]datum.Datum
}

// Result is a built physical plan.
type Result struct {
	Root exec.Operator
	Cols []exec.Col
}

// colInfo is one column visible in the query scope.
type colInfo struct {
	table   int // index into builder.tables
	ordinal int // ordinal within the table
	name    string
	alias   string // table alias (or name)
	typ     datum.Type
}

type tableEntry struct {
	ref    sqlparse.TableRef
	tbl    Table
	alias  string
	offset int // scope ordinal of the table's first column
}

// builder is the resolution-phase state (skeleton construction).
type builder struct {
	resolver Resolver

	tables []tableEntry
	scope  []colInfo
}

// singleTable reports whether every column the conjunct references belongs
// to one table, returning that table's index.
func (b *builder) singleTable(c expr.Expr) (int, bool) {
	cols := expr.DistinctColumns(c)
	if len(cols) == 0 {
		return 0, false
	}
	ti := b.scope[cols[0]].table
	for _, sc := range cols[1:] {
		if b.scope[sc].table != ti {
			return 0, false
		}
	}
	return ti, true
}

// joinEdge is an equi-join predicate between two tables, in scope ordinals.
type joinEdge struct {
	lt, rt     int // table indexes
	lcol, rcol int // scope ordinals
}

// asJoinEdge recognizes "colA = colB" conjuncts across two tables.
func (b *builder) asJoinEdge(c expr.Expr) (joinEdge, bool) {
	bin, ok := c.(*expr.BinOp)
	if !ok || bin.Op != expr.Eq {
		return joinEdge{}, false
	}
	l, lok := bin.L.(*expr.ColRef)
	r, rok := bin.R.(*expr.ColRef)
	if !lok || !rok {
		return joinEdge{}, false
	}
	lt, rt := b.scope[l.Index].table, b.scope[r.Index].table
	if lt == rt {
		return joinEdge{}, false
	}
	return joinEdge{lt: lt, rt: rt, lcol: l.Index, rcol: r.Index}, true
}

// colSet tracks needed scope columns.
type colSet struct{ set []bool }

func newColSet(n int) *colSet { return &colSet{set: make([]bool, n)} }

func (s *colSet) addExpr(e expr.Expr) {
	for _, c := range expr.DistinctColumns(e) {
		s.set[c] = true
	}
}

func (s *colSet) add(c int) { s.set[c] = true }
