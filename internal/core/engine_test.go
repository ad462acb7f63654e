package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/fits"
	"nodb/internal/schema"
)

// buildFixture writes a deterministic CSV table and returns its catalog.
//
// Table wide(id int, a int, b int, c float, name text, d date):
// id = 0..n-1, a = id%7, b = id*3, c = id/4.0, name = "name<id%5>",
// d = 1995-01-01 + id%300 days, with NULL b on id%11 == 0.
func buildFixture(t testing.TB, dir string, n int) *schema.Catalog {
	t.Helper()
	path := filepath.Join(dir, "wide.csv")
	var sb strings.Builder
	base := datum.MustDate("1995-01-01")
	for id := 0; id < n; id++ {
		b := strconv.Itoa(id * 3)
		if id%11 == 0 {
			b = ""
		}
		fmt.Fprintf(&sb, "%d,%d,%s,%s,name%d,%s\n",
			id, id%7, b,
			strconv.FormatFloat(float64(id)/4.0, 'g', -1, 64),
			id%5,
			base.AddDays(int64(id%300)).DateString())
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	tbl, err := schema.New("wide", []schema.Column{
		{Name: "id", Type: datum.Int},
		{Name: "a", Type: datum.Int},
		{Name: "b", Type: datum.Int},
		{Name: "c", Type: datum.Float},
		{Name: "name", Type: datum.Text},
		{Name: "d", Type: datum.Date},
	}, path, schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func openEngine(t testing.TB, cat *schema.Catalog, opts Options) *Engine {
	t.Helper()
	if opts.Mode == ModeLoadFirst && opts.DataDir == "" {
		opts.DataDir = t.(*testing.T).TempDir()
	}
	e, err := Open(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustQuery(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func rowsEqual(a, b []exec.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Null() != b[i][j].Null() {
				return false
			}
			if !a[i][j].Null() && datum.Compare(a[i][j], b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

func TestBasicInSituQuery(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 500)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	res := mustQuery(t, e, "SELECT id, a FROM wide WHERE id < 3 ORDER BY id")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) || r[1].Int() != int64(i%7) {
			t.Errorf("row %d = %v", i, r)
		}
	}
	if res.Cols[0].Name != "id" || res.Cols[1].Name != "a" {
		t.Errorf("cols = %v", res.Cols)
	}
}

// TestModeEquivalence is the central integration property: every engine
// mode must produce identical results for a spread of query shapes.
func TestModeEquivalence(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 700)
	queries := []string{
		"SELECT id, a, b FROM wide WHERE a = 3 ORDER BY id",
		"SELECT count(*), sum(b), avg(c) FROM wide",
		"SELECT a, count(*), min(d), max(name) FROM wide GROUP BY a ORDER BY a",
		"SELECT id FROM wide WHERE b IS NULL ORDER BY id LIMIT 5",
		"SELECT id, c FROM wide WHERE c BETWEEN 10 AND 20 AND name LIKE 'name1%' ORDER BY id",
		"SELECT sum(CASE WHEN a = 1 THEN b ELSE 0 END) FROM wide WHERE d >= date '1995-06-01'",
		"SELECT name, sum(c) FROM wide WHERE id > 100 GROUP BY name ORDER BY name",
	}
	modes := []Options{
		{Mode: ModePMCache},
		{Mode: ModePM},
		{Mode: ModeCache},
		{Mode: ModeExternalFiles},
		{Mode: ModeExternalFiles, FullParse: true},
		{Mode: ModeLoadFirst, DataDir: t.TempDir()},
		{Mode: ModePMCache, Statistics: true},
		{Mode: ModePMCache, PMBudget: 4096, CacheBudget: 8192}, // heavy eviction
	}
	var ref []*Result
	for mi, opts := range modes {
		e := openEngine(t, cat, opts)
		for qi, q := range queries {
			res := mustQuery(t, e, q)
			// Run every query twice: the second run exercises the warmed
			// positional map / cache paths.
			res2 := mustQuery(t, e, q)
			if !rowsEqual(res.Rows, res2.Rows) {
				t.Fatalf("mode %v (stats %v) query %q: warm run differs\ncold: %v\nwarm: %v",
					opts.Mode, opts.Statistics, q, res.Rows, res2.Rows)
			}
			if mi == 0 {
				ref = append(ref, res)
				continue
			}
			if !rowsEqual(ref[qi].Rows, res.Rows) {
				t.Fatalf("mode %v (opts %+v) query %q: rows differ from PM+C reference\nref:  %v\ngot:  %v",
					opts.Mode, opts, q, ref[qi].Rows, res.Rows)
			}
		}
	}
}

func TestAdaptiveSpeedupSignals(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 2000)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	mustQuery(t, e, "SELECT b, c FROM wide")
	m1 := e.Metrics("wide")
	if m1.Rows != 2000 {
		t.Errorf("rows after first scan = %d", m1.Rows)
	}
	if m1.PMPointers == 0 {
		t.Error("positional map should have been populated")
	}
	// Second identical query must be served from the cache (no file scan):
	// tuplesParsed must not grow.
	mustQuery(t, e, "SELECT b, c FROM wide")
	m2 := e.Metrics("wide")
	if m2.TuplesParsed != m1.TuplesParsed {
		t.Errorf("second query re-parsed the file: %d -> %d tuples", m1.TuplesParsed, m2.TuplesParsed)
	}
	if m2.CacheHits == m1.CacheHits {
		t.Error("second query should hit the cache")
	}
}

func TestSelectiveParsingSkipsNonQualifying(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 1000)
	// PM-only mode (no cache) so every parsed field is counted.
	e := openEngine(t, cat, Options{Mode: ModePM})
	// a = 6 qualifies 1/7 of tuples; b and c parse only for those.
	mustQuery(t, e, "SELECT b, c FROM wide WHERE a = 6")
	m := e.Metrics("wide")
	// Fields parsed = 1000 (a) + ~143*2 (b, c for qualifiers).
	upper := int64(1000 + 2*160)
	if m.FieldsParsed > upper {
		t.Errorf("selective parsing violated: %d fields parsed, want <= %d", m.FieldsParsed, upper)
	}
}

func TestExternalFilesModeKeepsNoState(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 300)
	e := openEngine(t, cat, Options{Mode: ModeExternalFiles})
	mustQuery(t, e, "SELECT id FROM wide WHERE a = 1")
	m := e.Metrics("wide")
	if m.PMPointers != 0 || m.CacheBytes != 0 {
		t.Errorf("external files mode must keep no auxiliary state: %+v", m)
	}
	// Every query re-parses everything.
	mustQuery(t, e, "SELECT id FROM wide WHERE a = 1")
	m2 := e.Metrics("wide")
	if m2.TuplesParsed != 2*m.TuplesParsed {
		t.Errorf("external files mode should re-scan: %d -> %d", m.TuplesParsed, m2.TuplesParsed)
	}
}

func TestLoadFirstMode(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 400)
	e := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	if err := e.Load(); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 400 {
		t.Errorf("count = %v", res.Rows[0])
	}
	// EXPLAIN ANALYZE names the heap access, never a cache one.
	var plan strings.Builder
	for _, row := range mustQuery(t, e, "EXPLAIN ANALYZE SELECT count(*) FROM wide WHERE a < 5").Rows {
		plan.WriteString(row[0].Text() + "\n")
	}
	if p := plan.String(); !strings.Contains(p, "access=heap shared") || strings.Contains(p, "access=cache") {
		t.Errorf("loaded scan's access detail:\n%s", p)
	}
	// Load on a non-load-first engine errors.
	e2 := openEngine(t, buildFixture(t, t.TempDir(), 10), Options{Mode: ModePM})
	if err := e2.Load(); err == nil {
		t.Error("Load in in-situ mode must error")
	}
}

func TestStatisticsCollection(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 1000)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})
	mustQuery(t, e, "SELECT a FROM wide WHERE id < 100")
	m := e.Metrics("wide")
	if m.StatsColumns < 2 { // id and a
		t.Errorf("stats columns = %d, want >= 2", m.StatsColumns)
	}
	// Statistics must be extended incrementally by later queries.
	mustQuery(t, e, "SELECT c FROM wide")
	if got := e.Metrics("wide").StatsColumns; got <= m.StatsColumns {
		t.Errorf("stats columns did not grow: %d -> %d", m.StatsColumns, got)
	}
}

func TestAppendsVisibleToNextQuery(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 100)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("initial count = %v", res.Rows[0])
	}
	// External append (paper §4.5): immediately visible, no invalidation.
	f, err := os.OpenFile(filepath.Join(dir, "wide.csv"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		fmt.Fprintf(f, "%d,%d,%d,%g,name%d,1996-01-01\n", i, i%7, i*3, float64(i)/4, i%5)
	}
	f.Close()
	res = mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 150 {
		t.Errorf("count after append = %v", res.Rows[0])
	}
	// Results across modes still agree after the append.
	e2 := openEngine(t, cat, Options{Mode: ModeExternalFiles})
	a := mustQuery(t, e, "SELECT id, b FROM wide WHERE a = 2 ORDER BY id")
	b := mustQuery(t, e2, "SELECT id, b FROM wide WHERE a = 2 ORDER BY id")
	if !rowsEqual(a.Rows, b.Rows) {
		t.Error("modes disagree after append")
	}
}

func TestFileShrinkInvalidates(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 100)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	mustQuery(t, e, "SELECT count(*) FROM wide")
	// Rewrite the file smaller.
	path := filepath.Join(dir, "wide.csv")
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:40], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 40 {
		t.Errorf("count after shrink = %v", res.Rows[0])
	}
}

func TestInvalidate(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 50)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	mustQuery(t, e, "SELECT id FROM wide")
	if e.Metrics("wide").PMPointers == 0 {
		t.Fatal("pm empty after scan")
	}
	e.Invalidate("wide")
	if m := e.Metrics("wide"); m.PMPointers != 0 || m.CacheBytes != 0 || m.Rows != -1 {
		t.Errorf("invalidate incomplete: %+v", m)
	}
	// Still queryable.
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 50 {
		t.Error("query after invalidate broken")
	}
}

func TestMalformedValueErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(path, []byte("1,2\n3,oops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	tbl, _ := schema.New("bad", []schema.Column{
		{Name: "x", Type: datum.Int},
		{Name: "y", Type: datum.Int},
	}, path, schema.CSV)
	cat.Register(tbl)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	if _, err := e.Query("SELECT y FROM bad"); err == nil {
		t.Error("malformed int must error")
	} else if !strings.Contains(err.Error(), "row 2") {
		t.Errorf("error should locate the row: %v", err)
	}
}

func TestShortRowsReadAsNull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ragged.csv")
	if err := os.WriteFile(path, []byte("1,2,3\n4\n5,6,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	tbl, _ := schema.New("ragged", []schema.Column{
		{Name: "x", Type: datum.Int},
		{Name: "y", Type: datum.Int},
		{Name: "z", Type: datum.Int},
	}, path, schema.CSV)
	cat.Register(tbl)
	for _, mode := range []Mode{ModePMCache, ModeExternalFiles} {
		e := openEngine(t, cat, Options{Mode: mode})
		res := mustQuery(t, e, "SELECT x, z FROM ragged ORDER BY x")
		if len(res.Rows) != 3 {
			t.Fatalf("mode %v: rows = %v", mode, res.Rows)
		}
		if !res.Rows[1][1].Null() {
			t.Errorf("mode %v: short row field must be NULL", mode)
		}
		if e.Metrics("ragged").ShortRows == 0 {
			t.Errorf("mode %v: short rows not counted", mode)
		}
	}
}

func TestMissingTableAndFile(t *testing.T) {
	cat := schema.NewCatalog()
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	if _, err := e.Query("SELECT x FROM nope"); err == nil {
		t.Error("missing table must error")
	}
	tbl, _ := schema.New("ghost", []schema.Column{{Name: "x", Type: datum.Int}},
		"/nonexistent/ghost.csv", schema.CSV)
	cat.Register(tbl)
	if _, err := e.Query("SELECT x FROM ghost"); err == nil {
		t.Error("missing file must error")
	}
}

func TestTinyBudgetsStillCorrect(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 600)
	e := openEngine(t, cat, Options{
		Mode:        ModePMCache,
		PMBudget:    1,
		CacheBudget: 1,
	})
	ref := openEngine(t, cat, Options{Mode: ModeExternalFiles})
	q := "SELECT a, count(*) FROM wide WHERE id >= 100 GROUP BY a ORDER BY a"
	for i := 0; i < 3; i++ {
		a := mustQuery(t, e, q)
		b := mustQuery(t, ref, q)
		if !rowsEqual(a.Rows, b.Rows) {
			t.Fatalf("run %d: budget-starved engine differs", i)
		}
	}
}

func TestRandomizedProjectionsMatchLoadFirst(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 400)
	insitu := openEngine(t, cat, Options{Mode: ModePMCache, CacheBudget: 30 << 10})
	loaded := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	colNames := []string{"id", "a", "b", "c", "name", "d"}
	rng := rand.New(rand.NewSource(21))
	for q := 0; q < 25; q++ {
		k := rng.Intn(4) + 1
		perm := rng.Perm(len(colNames))[:k]
		cols := make([]string, k)
		for i, p := range perm {
			cols[i] = colNames[p]
		}
		sql := fmt.Sprintf("SELECT %s FROM wide WHERE id >= %d ORDER BY id",
			strings.Join(cols, ", "), rng.Intn(300))
		if !strings.Contains(sql, "id,") && !strings.HasSuffix(strings.Split(sql, " FROM")[0], "id") {
			sql = strings.Replace(sql, "SELECT ", "SELECT id, ", 1)
		}
		a := mustQuery(t, insitu, sql)
		b := mustQuery(t, loaded, sql)
		if !rowsEqual(a.Rows, b.Rows) {
			t.Fatalf("query %q: in-situ and loaded disagree", sql)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModePMCache.String() != "pm+cache" || ModeLoadFirst.String() != "load-first" {
		t.Error("mode names wrong")
	}
	if Mode(99).String() != "unknown" {
		t.Error("unknown mode name wrong")
	}
}

func TestFITSTableThroughSQL(t *testing.T) {
	dir := t.TempDir()
	fitsPath := filepath.Join(dir, "obs.fits")
	cols := []fits.Column{
		{Name: "mag", Type: fits.Float64},
		{Name: "id", Type: fits.Int64},
	}
	var rows [][]datum.Datum
	for i := 0; i < 200; i++ {
		rows = append(rows, []datum.Datum{
			datum.NewFloat(float64(i) / 2),
			datum.NewInt(int64(i)),
		})
	}
	if err := fits.WriteTable(fitsPath, cols, rows); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	tbl, err := schema.New("obs", []schema.Column{
		{Name: "mag", Type: datum.Float},
		{Name: "id", Type: datum.Int},
	}, fitsPath, schema.FITS)
	if err != nil {
		t.Fatal(err)
	}
	cat.Register(tbl)

	e := openEngine(t, cat, Options{Mode: ModePMCache})
	res := mustQuery(t, e, "SELECT min(mag), max(mag), avg(mag), count(*) FROM obs WHERE id >= 100")
	r := res.Rows[0]
	if r[0].Float() != 50 || r[1].Float() != 99.5 || r[3].Int() != 100 {
		t.Errorf("fits aggregates = %v", r)
	}

	// Load-first mode must refuse FITS tables, like real DBMS (§5.3).
	lf := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	if _, err := lf.Query("SELECT count(*) FROM obs"); err == nil {
		t.Error("load-first over FITS must error")
	}
}

func TestInsertInternalUpdates(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 50)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})
	// Warm the structures first.
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != 50 {
		t.Fatal("bad fixture")
	}
	_, n, err := e.Exec(`INSERT INTO wide VALUES
		(50, 1, 150, 12.5, 'name0', date '1996-02-01'),
		(51, 2, 153, 12.75, 'name1', date '1996-02-02')`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("inserted %d rows", n)
	}
	res = mustQuery(t, e, "SELECT count(*), max(id) FROM wide")
	if res.Rows[0][0].Int() != 52 || res.Rows[0][1].Int() != 51 {
		t.Errorf("after insert: %v", res.Rows[0])
	}
	// The inserted values round-trip with correct types.
	res = mustQuery(t, e, "SELECT b, c, name, d FROM wide WHERE id = 51")
	r := res.Rows[0]
	if r[0].Int() != 153 || r[1].Float() != 12.75 || r[2].Text() != "name1" || r[3].DateString() != "1996-02-02" {
		t.Errorf("inserted row = %v", r)
	}
	// NULL via empty string literal.
	if _, _, err := e.Exec("INSERT INTO wide VALUES (52, 3, '', 1.0, 'x', date '1996-03-01')"); err != nil {
		t.Fatal(err)
	}
	res = mustQuery(t, e, "SELECT b FROM wide WHERE id = 52")
	if !res.Rows[0][0].Null() {
		t.Errorf("empty literal should insert NULL, got %v", res.Rows[0][0])
	}
}

func TestInsertValidation(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 10)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	cases := []string{
		"INSERT INTO missing VALUES (1)",
		"INSERT INTO wide VALUES (1, 2)",                                  // arity
		"INSERT INTO wide VALUES (1, 2, 3, 'notafloat', 'x', 5)",          // type
		"INSERT INTO wide VALUES (id, 2, 3, 4.0, 'x', date '1996-01-01')", // non-literal
	}
	for _, q := range cases {
		if _, _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	// Load-first engines reject INSERT.
	lf := openEngine(t, buildFixture(t, t.TempDir(), 10), Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	if _, _, err := lf.Exec("INSERT INTO wide VALUES (1, 2, 3, 4.0, 'x', date '1996-01-01')"); err == nil {
		t.Error("INSERT into load-first engine must fail")
	}
	// Exec also runs SELECTs.
	res, n, err := e.Exec("SELECT id FROM wide WHERE id < 3")
	if err != nil || n != 3 || len(res.Rows) != 3 {
		t.Errorf("Exec(select) = %v %d %v", res, n, err)
	}
}

func TestPrewarm(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 400)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})
	if err := e.Prewarm("wide", "b", "c"); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics("wide")
	if m.Rows != 400 || m.PMPointers == 0 || m.CacheBytes == 0 || m.StatsColumns < 2 {
		t.Fatalf("prewarm built nothing: %+v", m)
	}
	// The first "real" query over prewarmed columns must be a cache scan:
	// no additional tuples parsed.
	parsed := m.TuplesParsed
	mustQuery(t, e, "SELECT sum(b), avg(c) FROM wide")
	if got := e.Metrics("wide").TuplesParsed; got != parsed {
		t.Errorf("prewarmed query re-parsed the file: %d -> %d", parsed, got)
	}
	// All-columns prewarm and error cases.
	if err := e.Prewarm("wide"); err != nil {
		t.Fatal(err)
	}
	if err := e.Prewarm("missing"); err == nil {
		t.Error("prewarm of missing table must error")
	}
	if err := e.Prewarm("wide", "nope"); err == nil {
		t.Error("prewarm of missing column must error")
	}
	// External-files mode: a no-op, not an error.
	ef := openEngine(t, cat, Options{Mode: ModeExternalFiles})
	if err := ef.Prewarm("wide"); err != nil {
		t.Error(err)
	}
	// Load-first mode: prewarm = load.
	lf := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	if err := lf.Prewarm("wide"); err != nil {
		t.Error(err)
	}
}
