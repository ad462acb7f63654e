package nodb

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/qtrace"
	"nodb/internal/tpch"
)

// TestExplainAnalyze runs the same statement cold then warm and checks
// that the profile makes the paper's cost shift visible: the first
// execution parses raw bytes (tuples tokenized, raw-scan time), the
// second is served from the binary cache (cache hits, no tokenizing).
func TestExplainAnalyze(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	run := func() string {
		t.Helper()
		res, err := db.Query("EXPLAIN ANALYZE SELECT city, count(*) FROM trips GROUP BY city")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Columns) != 1 {
			t.Fatalf("explain columns = %+v", res.Columns)
		}
		var sb strings.Builder
		for _, row := range res.Rows {
			sb.WriteString(row[0].Text())
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	cold := run()
	t.Logf("cold:\n%s", cold)
	for _, want := range []string{"hash aggregate", "scan trips", "Parse: tuples=100", "Execution:", "access=raw recording", "cold=1"} {
		if !strings.Contains(cold, want) {
			t.Errorf("cold explain missing %q", want)
		}
	}

	warm := run()
	t.Logf("warm:\n%s", warm)
	for _, want := range []string{"access=cache shared", "Cache: hits=100", "warm=1"} {
		if !strings.Contains(warm, want) {
			t.Errorf("warm explain missing %q", want)
		}
	}
	if !strings.Contains(warm, "Parse: tuples=0") {
		t.Errorf("warm explain still tokenizes raw tuples:\n%s", warm)
	}
}

// TestExplainNoExecute checks that plain EXPLAIN renders the plan shape
// without running the query (no adaptive state may appear).
func TestExplainNoExecute(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res, err := db.Query("EXPLAIN SELECT id FROM trips WHERE id < 10")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].Text())
		sb.WriteByte('\n')
	}
	out := sb.String()
	t.Logf("explain:\n%s", out)
	if !strings.Contains(out, "scan trips") {
		t.Errorf("explain missing scan node:\n%s", out)
	}
	if strings.Contains(out, "Execution:") {
		t.Errorf("plain EXPLAIN rendered execution stats:\n%s", out)
	}
	if m := db.Metrics("trips"); m.ColdScans != 0 || m.TuplesParsed != 0 {
		t.Errorf("plain EXPLAIN executed the query: metrics %+v", m)
	}
}

// TestRowsProfile exercises the WithProfile + Rows.Profile public path.
func TestRowsProfile(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx := WithProfile(context.Background())
	rows, err := db.QueryContext(ctx, "SELECT id FROM trips WHERE id < 10")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	p := rows.Profile()
	if p == nil {
		t.Fatal("Profile() = nil with WithProfile context")
	}
	if p.Ctrs.RowsOut != int64(n) || n != 10 {
		t.Errorf("RowsOut = %d, streamed %d", p.Ctrs.RowsOut, n)
	}
	if p.Running {
		t.Error("profile still running after drain")
	}
	if p.Phases.ExecuteNS <= 0 {
		t.Errorf("ExecuteNS = %d", p.Phases.ExecuteNS)
	}
	if p.Ctrs.TuplesParsed == 0 {
		t.Errorf("cold scan parsed no tuples: %+v", p.Ctrs)
	}
	if p.SQL == "" || p.WallNS <= 0 {
		t.Errorf("snapshot incomplete: %+v", p)
	}

	// Without WithProfile there is no profile and no overhead path.
	rows2, err := db.QueryContext(context.Background(), "SELECT id FROM trips LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	for rows2.Next() {
	}
	if rows2.Profile() != nil {
		t.Error("Profile() != nil without WithProfile")
	}
}

// tpchTestDB opens a small generated TPC-H instance through the public
// catalog API.
func tpchTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.002, 5); err != nil {
		t.Fatal(err)
	}
	schemaPath := filepath.Join(dir, "schema.nodb")
	if err := tpch.WriteSchemaFile(schemaPath); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.LoadSchemaFile(schemaPath, dir); err != nil {
		t.Fatal(err)
	}
	db, err := Open(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestProfileJoin: a profiled multi-table query runs the same batch-native
// join as an unprofiled one. Its "hash join" spans report build rows, probe
// rows and output batches, the scans below still annotate their access
// method, and on a warm Q3 those scans deliver batches narrowed by compiled
// kernels — none by the interpreted walk.
func TestProfileJoin(t *testing.T) {
	db := tpchTestDB(t, Options{})
	q3 := tpch.Queries["Q3"]
	want, err := db.Query(q3)
	if err != nil {
		t.Fatal(err)
	}
	// A filtered scan caches a column only for the rows that reached it;
	// prewarming Q3's columns is what makes every later scan a cache scan.
	for table, cols := range map[string][]string{
		"customer": {"c_custkey", "c_mktsegment"},
		"orders":   {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"},
		"lineitem": {"l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"},
	} {
		if err := db.Prewarm(table, cols...); err != nil {
			t.Fatal(err)
		}
	}

	ctx := WithProfile(context.Background())
	rows, err := db.QueryContext(ctx, q3)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want.Rows) || n == 0 {
		t.Fatalf("profiled Q3 returned %d rows, unprofiled %d", n, len(want.Rows))
	}
	p := rows.Profile()
	if p.Ctrs.KernelBatches == 0 || p.Ctrs.GenericBatches != 0 {
		t.Errorf("warm Q3: kernel batches = %d, generic batches = %d; want > 0 and 0",
			p.Ctrs.KernelBatches, p.Ctrs.GenericBatches)
	}
	if p.Ctrs.TuplesParsed != 0 || p.Ctrs.WarmScans != 3 {
		t.Errorf("warm Q3: tuples parsed = %d, warm scans = %d; want 0 and 3", p.Ctrs.TuplesParsed, p.Ctrs.WarmScans)
	}

	joins, scans := 0, 0
	var walk func(sp qtrace.SpanInfo)
	walk = func(sp qtrace.SpanInfo) {
		switch {
		case sp.Label == "hash join":
			joins++
			for _, part := range []string{"build_rows=", "probe_rows=", "out_batches="} {
				if !strings.Contains(sp.Detail, part) {
					t.Errorf("hash join detail %q lacks %s", sp.Detail, part)
				}
			}
			if sp.Batches == 0 || sp.Rows == 0 || len(sp.Children) != 2 {
				t.Errorf("hash join span: rows=%d batches=%d children=%d", sp.Rows, sp.Batches, len(sp.Children))
			}
		case strings.HasPrefix(sp.Label, "scan "):
			scans++
			if !strings.HasPrefix(sp.Detail, "access=cache") {
				t.Errorf("%s: detail %q, want a cache access method", sp.Label, sp.Detail)
			}
			if sp.Batches == 0 {
				t.Errorf("%s below a join was not read batch-at-a-time", sp.Label)
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(*p.Plan)
	if joins != 2 || scans != 3 {
		t.Errorf("Q3 plan has %d hash joins and %d scans, want 2 and 3", joins, scans)
	}

	// A bare LIMIT above a join must not reach the scans as a row budget —
	// through the span wrappers either.
	limited := "SELECT o_orderkey, l_linenumber FROM orders, lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45 LIMIT 7"
	plain, err := db.Query(limited)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = db.QueryContext(ctx, limited)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; rows.Next(); i++ {
		var k, l int64
		if err := rows.Scan(&k, &l); err != nil {
			t.Fatal(err)
		}
		if i < len(plain.Rows) && (k != plain.Rows[i][0].Int() || l != plain.Rows[i][1].Int()) {
			t.Errorf("profiled LIMIT row %d = (%d, %d), unprofiled %v", i, k, l, plain.Rows[i])
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 7 || len(plain.Rows) != 7 {
		t.Errorf("LIMIT 7 above a join: profiled %d rows, unprofiled %d", i, len(plain.Rows))
	}
}

// TestProfileTypedAggregation: on a warm Q1 every aggregate argument
// batch runs a typed value program. The "hash aggregate" span reports its
// input rows, groups and typed versus generic argument batches, and the
// profile counts the typed ones as kernel batches — none as generic.
func TestProfileTypedAggregation(t *testing.T) {
	db := tpchTestDB(t, Options{})
	q1 := tpch.Queries["Q1"]
	want, err := db.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Prewarm("lineitem", "l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(WithProfile(context.Background()), q1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want.Rows) || n == 0 {
		t.Fatalf("profiled Q1 returned %d rows, unprofiled %d", n, len(want.Rows))
	}
	p := rows.Profile()
	if p.Ctrs.KernelBatches == 0 || p.Ctrs.GenericBatches != 0 {
		t.Errorf("warm Q1: kernel batches = %d, generic batches = %d; want > 0 and 0",
			p.Ctrs.KernelBatches, p.Ctrs.GenericBatches)
	}
	var agg *qtrace.SpanInfo
	var walk func(sp *qtrace.SpanInfo)
	walk = func(sp *qtrace.SpanInfo) {
		if sp.Label == "hash aggregate" {
			agg = sp
		}
		for i := range sp.Children {
			walk(&sp.Children[i])
		}
	}
	walk(p.Plan)
	if agg == nil {
		t.Fatal("Q1 plan has no hash aggregate span")
	}
	var in, groups, typed, generic int64
	if _, err := fmt.Sscanf(agg.Detail, "input_rows=%d groups=%d typed_arg_batches=%d generic_arg_batches=%d",
		&in, &groups, &typed, &generic); err != nil {
		t.Fatalf("hash aggregate detail %q: %v", agg.Detail, err)
	}
	if in == 0 || groups != int64(n) || typed == 0 || generic != 0 {
		t.Errorf("hash aggregate detail %q: want input rows, %d groups, typed batches only", agg.Detail, n)
	}
}
