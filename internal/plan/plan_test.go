package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/kernel"
	"nodb/internal/schema"
	"nodb/internal/sqlparse"
	"nodb/internal/stats"
)

// memTable is an in-memory Table for planner tests. It records the last
// scan request so tests can assert pushdown behaviour.
type memTable struct {
	name string
	cols []schema.Column
	rows []exec.Row
	st   *stats.Table

	lastScanCols      []int
	lastScanConjuncts []expr.Expr
}

func (m *memTable) Name() string             { return m.name }
func (m *memTable) Columns() []schema.Column { return m.cols }
func (m *memTable) Stats() *stats.Table      { return m.st }
func (m *memTable) RowCount() int64          { return int64(len(m.rows)) }

func (m *memTable) Scan(_ context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	m.lastScanCols = append([]int(nil), cols...)
	m.lastScanConjuncts = append([]expr.Expr(nil), conjuncts...)
	outCols := make([]exec.Col, len(cols))
	for k, c := range cols {
		outCols[k] = exec.Col{Name: m.cols[c].Name, Type: m.cols[c].Type}
	}
	return &memScan{m: m, cols: cols, outCols: outCols, pred: expr.JoinConjuncts(conjuncts)}, nil
}

// memScan filters and projects the table's rows when opened, then emits
// them as one Values stream.
type memScan struct {
	*exec.Values
	m       *memTable
	cols    []int
	outCols []exec.Col
	pred    expr.Expr
}

func (s *memScan) Columns() []exec.Col { return s.outCols }
func (s *memScan) Close() error        { return nil }

func (s *memScan) Open() error {
	var out []exec.Row
	for _, row := range s.m.rows {
		if s.pred != nil {
			ok, err := expr.TruthyResult(s.pred, row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		r := make(exec.Row, len(s.cols))
		for k, c := range s.cols {
			r[k] = row[c]
		}
		out = append(out, r)
	}
	s.Values = exec.NewValues(s.outCols, out)
	return s.Values.Open()
}

type memResolver map[string]*memTable

func (r memResolver) Table(name string) (Table, error) {
	t, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("plan_test: unknown table %q", name)
	}
	return t, nil
}

func intRow(vs ...int64) exec.Row {
	r := make(exec.Row, len(vs))
	for i, v := range vs {
		r[i] = datum.NewInt(v)
	}
	return r
}

func col(i int) *expr.ColRef  { return &expr.ColRef{Index: i} }
func lit(v int64) *expr.Const { return &expr.Const{D: datum.NewInt(v)} }

func testTables() memResolver {
	users := &memTable{
		name: "users",
		cols: []schema.Column{
			{Name: "id", Type: datum.Int},
			{Name: "age", Type: datum.Int},
			{Name: "city", Type: datum.Text},
		},
		rows: []exec.Row{
			{datum.NewInt(1), datum.NewInt(30), datum.NewText("basel")},
			{datum.NewInt(2), datum.NewInt(25), datum.NewText("geneva")},
			{datum.NewInt(3), datum.NewInt(41), datum.NewText("basel")},
			{datum.NewInt(4), datum.NewInt(25), datum.NewText("zurich")},
		},
	}
	orders := &memTable{
		name: "orders",
		cols: []schema.Column{
			{Name: "oid", Type: datum.Int},
			{Name: "uid", Type: datum.Int},
			{Name: "amount", Type: datum.Int},
		},
		rows: []exec.Row{
			intRow(100, 1, 10),
			intRow(101, 1, 20),
			intRow(102, 2, 5),
			intRow(103, 3, 50),
			intRow(104, 9, 99), // dangling uid
		},
	}
	return memResolver{"users": users, "orders": orders}
}

func run(t *testing.T, r Resolver, sql string, opts Options) []exec.Row {
	t.Helper()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := Build(sel, r, opts)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	rows, err := exec.Drain(res.Root)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return rows
}

func TestSelectProjectFilter(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT id FROM users WHERE age = 25", Options{})
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 2 || rows[1][0].Int() != 4 {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectStar(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT * FROM users", Options{})
	if len(rows) != 4 || len(rows[0]) != 3 {
		t.Fatalf("star rows = %v", rows)
	}
}

func TestProjectionPushdown(t *testing.T) {
	r := testTables()
	run(t, r, "SELECT id FROM users WHERE age > 20", Options{})
	u := r["users"]
	// Scan must output only id (ordinal 0); age is filter-only.
	if len(u.lastScanCols) != 1 || u.lastScanCols[0] != 0 {
		t.Errorf("scan cols = %v, want [0]", u.lastScanCols)
	}
	if len(u.lastScanConjuncts) != 1 {
		t.Errorf("pushed conjuncts = %v", u.lastScanConjuncts)
	}
	// Pushed conjunct must reference TABLE ordinals (age = 1).
	cols := expr.DistinctColumns(u.lastScanConjuncts[0])
	if len(cols) != 1 || cols[0] != 1 {
		t.Errorf("pushed conjunct cols = %v, want [1]", cols)
	}
}

func TestExpressionsAndAliases(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT age * 2 AS dbl, city FROM users WHERE id = 1", Options{})
	if len(rows) != 1 || rows[0][0].Int() != 60 || rows[0][1].Text() != "basel" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT id, age FROM users ORDER BY age DESC, id ASC LIMIT 2", Options{})
	if len(rows) != 2 || rows[0][0].Int() != 3 || rows[1][0].Int() != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// ORDER BY alias and by position.
	rows = run(t, r, "SELECT id, age AS a FROM users ORDER BY a LIMIT 1", Options{})
	if rows[0][1].Int() != 25 {
		t.Fatalf("alias order = %v", rows)
	}
	rows = run(t, r, "SELECT id, age FROM users ORDER BY 2 LIMIT 1", Options{})
	if rows[0][1].Int() != 25 {
		t.Fatalf("positional order = %v", rows)
	}
}

func TestGlobalAggregates(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT count(*), sum(age), min(age), max(age), avg(age) FROM users", Options{})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	got := rows[0]
	if got[0].Int() != 4 || got[1].Int() != 121 || got[2].Int() != 25 || got[3].Int() != 41 {
		t.Errorf("aggregates = %v", got)
	}
	if got[4].Float() != 121.0/4 {
		t.Errorf("avg = %v", got[4])
	}
}

func TestGroupByWithExpressionsOverAggregates(t *testing.T) {
	r := testTables()
	rows := run(t, r,
		"SELECT city, count(*) AS n, sum(age) * 2 FROM users GROUP BY city ORDER BY city",
		Options{})
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	// basel: n=2 sum*2=142; geneva: 1, 50; zurich: 1, 50.
	if rows[0][0].Text() != "basel" || rows[0][1].Int() != 2 || rows[0][2].Int() != 142 {
		t.Errorf("basel = %v", rows[0])
	}
}

func TestGroupByNonGroupedColumnRejected(t *testing.T) {
	r := testTables()
	sel, _ := sqlparse.Parse("SELECT city, age FROM users GROUP BY city")
	if _, err := Build(sel, r, Options{}); err == nil {
		t.Error("non-grouped column must be rejected")
	}
}

func TestJoinTwoTables(t *testing.T) {
	r := testTables()
	for _, opts := range []Options{{}, {UseStats: true}} {
		rows := run(t, r,
			"SELECT u.id, o.amount FROM users u, orders o WHERE u.id = o.uid AND o.amount >= 10 ORDER BY o.amount DESC",
			opts)
		// Orders with amount>=10 joined to users: (1,10),(1,20),(3,50) →
		// sorted desc by amount: 50, 20, 10.
		if len(rows) != 3 {
			t.Fatalf("opts %+v: join rows = %v", opts, rows)
		}
		if rows[0][1].Int() != 50 || rows[2][1].Int() != 10 {
			t.Errorf("opts %+v: join order = %v", opts, rows)
		}
	}
}

func TestJoinExplicitSyntax(t *testing.T) {
	r := testTables()
	rows := run(t, r,
		"SELECT u.city, sum(o.amount) FROM users u JOIN orders o ON u.id = o.uid GROUP BY u.city ORDER BY u.city",
		Options{})
	// basel: users 1,3 → 10+20+50=80; geneva: user 2 → 5.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Text() != "basel" || rows[0][1].Int() != 80 {
		t.Errorf("basel join agg = %v", rows[0])
	}
	if rows[1][0].Text() != "geneva" || rows[1][1].Int() != 5 {
		t.Errorf("geneva join agg = %v", rows[1])
	}
}

func TestStatsPlanSameResults(t *testing.T) {
	// Queries must return identical rows with and without statistics.
	r := testTables()
	// Attach stats built from the data.
	u := r["users"]
	st := stats.NewTable()
	st.SetRowCount(int64(len(u.rows)))
	for ci := range u.cols {
		col := stats.NewCollector(u.cols[ci].Type, 1)
		for _, row := range u.rows {
			col.Add(row[ci])
		}
		st.Set(ci, col.Finalize())
	}
	u.st = st
	queries := []string{
		"SELECT city, count(*) FROM users GROUP BY city ORDER BY city",
		"SELECT id FROM users WHERE age > 24 AND city = 'basel' ORDER BY id",
		"SELECT u.id, o.oid FROM users u, orders o WHERE u.id = o.uid ORDER BY o.oid",
	}
	for _, q := range queries {
		a := run(t, r, q, Options{UseStats: false})
		b := run(t, r, q, Options{UseStats: true})
		if len(a) != len(b) {
			t.Fatalf("%q: %d vs %d rows", q, len(a), len(b))
		}
		for i := range a {
			for j := range a[i] {
				if datum.Compare(a[i][j], b[i][j]) != 0 {
					t.Fatalf("%q row %d: %v vs %v", q, i, a[i], b[i])
				}
			}
		}
	}
}

func TestConjunctOrderingWithStats(t *testing.T) {
	r := testTables()
	u := r["users"]
	st := stats.NewTable()
	st.SetRowCount(4)
	for ci := range u.cols {
		col := stats.NewCollector(u.cols[ci].Type, 1)
		for _, row := range u.rows {
			col.Add(row[ci])
		}
		st.Set(ci, col.Finalize())
	}
	u.st = st
	// age > 0 is unselective (sel ~1); id = 1 is highly selective.
	run(t, r, "SELECT city FROM users WHERE age > 0 AND id = 1", Options{UseStats: true})
	if len(u.lastScanConjuncts) != 2 {
		t.Fatalf("conjuncts = %v", u.lastScanConjuncts)
	}
	first := u.lastScanConjuncts[0].String()
	if !strings.Contains(first, "=") {
		t.Errorf("most selective conjunct (id=1) should come first, got %s", first)
	}
}

func TestCaseAndLikeInQuery(t *testing.T) {
	r := testTables()
	rows := run(t, r,
		"SELECT sum(CASE WHEN city LIKE 'ba%' THEN 1 ELSE 0 END), count(*) FROM users",
		Options{})
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 4 {
		t.Fatalf("case/like = %v", rows)
	}
}

func TestPlannerErrors(t *testing.T) {
	r := testTables()
	bad := []string{
		"SELECT nope FROM users",
		"SELECT id FROM missing",
		"SELECT u.id FROM users u, users u",      // duplicate alias
		"SELECT id FROM users ORDER BY nosuch",   // unknown order key
		"SELECT id FROM users WHERE age IN (id)", // non-literal IN
		"SELECT id FROM users GROUP BY city",     // id not grouped
		"SELECT * , count(*) FROM users",         // star with aggregation
		"SELECT id FROM users ORDER BY 9",        // position out of range
	}
	for _, q := range bad {
		sel, err := sqlparse.Parse(q)
		if err != nil {
			continue // parse-level rejection also acceptable
		}
		if _, err := Build(sel, r, Options{}); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	r := memResolver{
		"a": {name: "a", cols: []schema.Column{{Name: "x", Type: datum.Int}}},
		"b": {name: "b", cols: []schema.Column{{Name: "x", Type: datum.Int}}},
	}
	sel, _ := sqlparse.Parse("SELECT x FROM a, b")
	if _, err := Build(sel, r, Options{}); err == nil {
		t.Error("ambiguous column must be rejected")
	}
	// Qualified reference resolves fine.
	sel, _ = sqlparse.Parse("SELECT a.x FROM a, b WHERE a.x = b.x")
	if _, err := Build(sel, r, Options{}); err != nil {
		t.Errorf("qualified resolution failed: %v", err)
	}
}

func TestAggDedup(t *testing.T) {
	// sum(age) used twice must evaluate once (same agg output column).
	r := testTables()
	rows := run(t, r, "SELECT sum(age), sum(age) / 2 FROM users", Options{})
	if rows[0][0].Int() != 121 || rows[0][1].Float() != 60.5 {
		t.Fatalf("dedup agg = %v", rows)
	}
}

func TestDateLiteralsInPlan(t *testing.T) {
	events := &memTable{
		name: "events",
		cols: []schema.Column{{Name: "d", Type: datum.Date}, {Name: "v", Type: datum.Int}},
		rows: []exec.Row{
			{datum.MustDate("1994-01-15"), datum.NewInt(1)},
			{datum.MustDate("1994-06-01"), datum.NewInt(2)},
			{datum.MustDate("1995-02-01"), datum.NewInt(3)},
		},
	}
	r := memResolver{"events": events}
	rows := run(t, r,
		"SELECT sum(v) FROM events WHERE d >= date '1994-01-01' AND d < date '1994-01-01' + interval '1' year",
		Options{})
	if rows[0][0].Int() != 3 {
		t.Fatalf("date filter = %v", rows)
	}
}

func TestCountDistinct(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT count(DISTINCT age), count(age) FROM users", Options{})
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 4 {
		t.Fatalf("count distinct = %v", rows)
	}
	// Per-group distinct counts over a join (the Q4 rewrite shape).
	rows = run(t, r,
		"SELECT u.city, count(DISTINCT o.uid) FROM users u, orders o WHERE u.id = o.uid GROUP BY u.city ORDER BY u.city",
		Options{})
	// basel: uids {1,3} -> 2; geneva: {2} -> 1.
	if len(rows) != 2 || rows[0][1].Int() != 2 || rows[1][1].Int() != 1 {
		t.Fatalf("grouped count distinct = %v", rows)
	}
}

func TestOrFactoring(t *testing.T) {
	r := testTables()
	// The join predicate is repeated inside both OR branches (Q19 shape);
	// factoring must still produce the right rows and, crucially, a real
	// equi-join (not a cross join) — verify via results.
	rows := run(t, r, `SELECT u.id, o.amount FROM users u, orders o
		WHERE (u.id = o.uid AND o.amount > 40) OR (u.id = o.uid AND u.age > 29 AND o.amount < 15)
		ORDER BY o.amount`, Options{})
	// amount>40: (3,50). age>29 & amount<15: user1 is 30 -> (1,10).
	if len(rows) != 2 || rows[0][1].Int() != 10 || rows[1][1].Int() != 50 {
		t.Fatalf("or-factored join = %v", rows)
	}
}

func TestFactorOrUnit(t *testing.T) {
	a := &expr.BinOp{Op: expr.Eq, L: col(0), R: lit(1)}
	b := &expr.BinOp{Op: expr.Gt, L: col(1), R: lit(2)}
	c := &expr.BinOp{Op: expr.Lt, L: col(2), R: lit(3)}
	// (a AND b) OR (a AND c) => [a, (b OR c)]
	or := &expr.BinOp{Op: expr.Or,
		L: &expr.BinOp{Op: expr.And, L: a, R: b},
		R: &expr.BinOp{Op: expr.And, L: a, R: c},
	}
	out := factorOr(or)
	if len(out) != 2 {
		t.Fatalf("factorOr = %v", out)
	}
	if out[0].String() != a.String() {
		t.Errorf("common = %s", out[0])
	}
	// a OR (a AND b) => branch residue empty => just a.
	or2 := &expr.BinOp{Op: expr.Or, L: a, R: &expr.BinOp{Op: expr.And, L: a, R: b}}
	out2 := factorOr(or2)
	if len(out2) != 1 || out2[0].String() != a.String() {
		t.Errorf("empty-residue factoring = %v", out2)
	}
	// No common factor: unchanged.
	or3 := &expr.BinOp{Op: expr.Or, L: b, R: c}
	out3 := factorOr(or3)
	if len(out3) != 1 || out3[0] != or3 {
		t.Errorf("no-common factoring = %v", out3)
	}
	// Non-OR passes through.
	if got := factorOr(a); len(got) != 1 || got[0] != a {
		t.Error("non-OR must pass through")
	}
}

func TestCrossJoinFallback(t *testing.T) {
	// No join predicate at all: the planner must still produce a correct
	// (cross) join.
	r := testTables()
	rows := run(t, r, "SELECT count(*) FROM users, orders", Options{UseStats: true})
	if rows[0][0].Int() != int64(4*5) {
		t.Fatalf("cross join count = %v", rows[0][0])
	}
	rows = run(t, r, "SELECT count(*) FROM users, orders", Options{})
	if rows[0][0].Int() != int64(4*5) {
		t.Fatalf("cross join count (no stats) = %v", rows[0][0])
	}
}

func TestThreeWayJoinBothPlanners(t *testing.T) {
	r := testTables()
	r["tags"] = &memTable{
		name: "tags",
		cols: []schema.Column{
			{Name: "tid", Type: datum.Int},
			{Name: "ouid", Type: datum.Int},
			{Name: "label", Type: datum.Text},
		},
		rows: []exec.Row{
			{datum.NewInt(1), datum.NewInt(100), datum.NewText("big")},
			{datum.NewInt(2), datum.NewInt(103), datum.NewText("rush")},
			{datum.NewInt(3), datum.NewInt(103), datum.NewText("gift")},
		},
	}
	q := `SELECT u.city, t.label FROM users u, orders o, tags t
	      WHERE u.id = o.uid AND o.oid = t.ouid ORDER BY t.label`
	want := [][2]string{{"basel", "big"}, {"basel", "gift"}, {"basel", "rush"}}
	for _, opts := range []Options{{}, {UseStats: true}} {
		rows := run(t, r, q, opts)
		if len(rows) != 3 {
			t.Fatalf("opts %+v: rows = %v", opts, rows)
		}
		for i, w := range want {
			if rows[i][0].Text() != w[0] || rows[i][1].Text() != w[1] {
				t.Fatalf("opts %+v row %d = %v, want %v", opts, i, rows[i], w)
			}
		}
	}
}

func TestHavingViaNestedFilterRejected(t *testing.T) {
	// HAVING is unsupported; the parser rejects it as trailing garbage.
	if _, err := sqlparse.Parse("SELECT city, count(*) FROM users GROUP BY city HAVING count(*) > 1"); err == nil {
		t.Error("HAVING should be rejected by the parser")
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	sel, err := sqlparse.Parse("SELECT city FROM users WHERE sum(age) > 1 GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(sel, testTables(), Options{}); err == nil {
		t.Error("aggregate in WHERE must be rejected")
	}
}

func TestOrderByAstTextMatch(t *testing.T) {
	r := testTables()
	// ORDER BY an expression that textually matches a select item.
	rows := run(t, r, "SELECT id, age * 2 FROM users ORDER BY age * 2 DESC LIMIT 1", Options{})
	if rows[0][1].Int() != 82 {
		t.Fatalf("expr-matched order = %v", rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	r := testTables()
	rows := run(t, r, "SELECT age / 10, count(*) FROM users GROUP BY age / 10 ORDER BY 1", Options{})
	// ages 30,25,41,25 -> buckets 2.5,3,4.1 as float division... ages/10:
	// 3.0, 2.5, 4.1, 2.5 -> three groups.
	if len(rows) != 3 {
		t.Fatalf("expression groups = %v", rows)
	}
	if rows[0][1].Int() != 2 {
		t.Errorf("bucket 2.5 count = %v", rows[0][1])
	}
}

func TestEstimateTableDefaults(t *testing.T) {
	// Without stats the estimator returns raw rowcounts; with stats it
	// multiplies conjunct selectivities.
	r := testTables()
	u := r["users"]
	st := stats.NewTable()
	st.SetRowCount(4)
	col := stats.NewCollector(datum.Int, 1)
	for _, row := range u.rows {
		col.Add(row[1])
	}
	st.Set(1, col.Finalize())
	u.st = st

	sel, _ := sqlparse.Parse("SELECT id FROM users WHERE age = 25")
	if _, err := Build(sel, r, Options{UseStats: true}); err != nil {
		t.Fatal(err)
	}
	// Just exercising; correctness asserted elsewhere. Estimate the
	// conjunct selectivity directly.
	selEst := conjunctSelectivity(u.st, u.lastScanConjuncts[0])
	if selEst <= 0 || selEst > 1 {
		t.Errorf("selectivity = %f", selEst)
	}
}

func TestFlipOpAndClamp(t *testing.T) {
	if flipOp(expr.Lt) != expr.Gt || flipOp(expr.Ge) != expr.Le || flipOp(expr.Eq) != expr.Eq {
		t.Error("flipOp wrong")
	}
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 wrong")
	}
}

func TestInferTypes(t *testing.T) {
	cases := []struct {
		e    expr.Expr
		want datum.Type
	}{
		{&expr.BinOp{Op: expr.Div, L: lit(4), R: lit(2)}, datum.Float},
		{&expr.BinOp{Op: expr.Add, L: lit(1), R: lit(2)}, datum.Int},
		{&expr.BinOp{Op: expr.Lt, L: lit(1), R: lit(2)}, datum.Bool},
		{&expr.Neg{E: lit(1)}, datum.Int},
		{&expr.Like{E: &expr.Const{D: datum.NewText("x")}, Pattern: "x"}, datum.Bool},
		{&expr.Case{Whens: []expr.When{{Cond: lit(1), Then: &expr.Const{D: datum.NewText("a")}}}}, datum.Text},
	}
	for _, tc := range cases {
		if got := expr.StaticType(tc.e); got != tc.want {
			t.Errorf("StaticType(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

// TestBindTimeConstantFolding: literal arithmetic folds during resolution
// and, in a prepared statement, once its placeholders are bound — so the
// date ± interval conjuncts of TPC-H reach the scan as compiled filter
// kernels — while an expression that fails (division by zero) is kept
// until a row reaches it.
func TestBindTimeConstantFolding(t *testing.T) {
	events := &memTable{
		name: "events",
		cols: []schema.Column{{Name: "d", Type: datum.Date}, {Name: "v", Type: datum.Int}},
		rows: []exec.Row{
			{datum.MustDate("1994-01-15"), datum.NewInt(1)},
			{datum.MustDate("1994-06-01"), datum.NewInt(2)},
			{datum.MustDate("1995-02-01"), datum.NewInt(3)},
		},
	}
	r := memResolver{"events": events}
	kc := kernel.NewCache(0)
	folded := func(sql string, want datum.Datum) {
		t.Helper()
		k, ok := events.lastScanConjuncts[0].(*expr.Kernel)
		if !ok {
			t.Fatalf("%s: conjunct %s did not compile", sql, events.lastScanConjuncts[0])
		}
		cmp, ok := k.E.(*expr.BinOp)
		if !ok {
			t.Fatalf("%s: conjunct %s is not a comparison", sql, k.E)
		}
		if c, ok := cmp.R.(*expr.Const); !ok || datum.Compare(c.D, want) != 0 || c.D.T != datum.Date {
			t.Errorf("%s: comparand %s, want the folded date %s", sql, cmp.R, want)
		}
	}
	for sql, want := range map[string]datum.Datum{
		"SELECT v FROM events WHERE d <= date '1994-12-01' - interval '90' day":  datum.MustDate("1994-09-02"),
		"SELECT v FROM events WHERE d < date '1994-01-01' + interval '3' month":  datum.MustDate("1994-04-01"),
		"SELECT v FROM events WHERE d < date '1994-01-01' + interval '1' year":   datum.MustDate("1995-01-01"),
		"SELECT v FROM events WHERE d >= date '1995-09-01' - interval '1' month": datum.MustDate("1995-08-02"),
	} {
		run(t, r, sql, Options{KernelCache: kc})
		folded(sql, want)
	}

	sql := "SELECT v FROM events WHERE d < $1 + interval '1' year"
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSkeleton(sel, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sk.Bind(r, Options{KernelCache: kc, Params: []datum.Datum{datum.MustDate("1994-01-01")}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(res.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("prepared date window returned %d rows, want 2", len(rows))
	}
	folded(sql, datum.MustDate("1995-01-01"))

	// 1/0 is not folded: planning succeeds, the first row to reach it fails.
	sel, err = sqlparse.Parse("SELECT v FROM events WHERE v > 1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	res, err = Build(sel, r, Options{KernelCache: kc})
	if err != nil {
		t.Fatalf("planning 1/0 failed: %v", err)
	}
	if _, err := exec.Drain(res.Root); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("1/0 over rows: err = %v, want division by zero", err)
	}
}
