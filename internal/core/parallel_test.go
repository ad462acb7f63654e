package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/schema"
)

// parallelWorkerCounts are the knob settings every equivalence test sweeps;
// 1 is the sequential reference.
var parallelWorkerCounts = []int{1, 2, 8}

// TestParallelScanEquivalence is the tentpole regression: for every in-situ
// mode and worker count, the parallel partitioned scan must return the same
// rows in the same order as the sequential scan, and leave identical
// adaptive structures behind (observable via Metrics).
func TestParallelScanEquivalence(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 700)
	// Full-scan queries: rows AND metrics must match exactly. The LIMIT
	// query runs after the metrics snapshot — an early-terminated parallel
	// scan tears its workers down wherever they happen to be, so partial
	// progress counters are inherently not comparable (the returned rows
	// still are).
	queries := []string{
		"SELECT id, a, b FROM wide WHERE a = 3",
		"SELECT count(*), sum(b), avg(c) FROM wide",
		"SELECT id, name, d FROM wide WHERE id >= 650",
		"SELECT a, count(*), min(d), max(name) FROM wide GROUP BY a ORDER BY a",
	}
	limitQuery := "SELECT id FROM wide WHERE b IS NULL LIMIT 5"
	modes := []Options{
		{Mode: ModePMCache},
		{Mode: ModePMCache, Statistics: true},
		{Mode: ModePM},
		{Mode: ModeCache},
		{Mode: ModeExternalFiles},
	}
	for _, base := range modes {
		var ref []*Result
		var refM TableMetrics
		for _, w := range parallelWorkerCounts {
			opts := base
			opts.Parallelism = w
			e := openEngine(t, cat, opts)
			var results []*Result
			for _, q := range queries {
				results = append(results, mustQuery(t, e, q))
			}
			m := e.Metrics("wide")
			results = append(results, mustQuery(t, e, limitQuery))
			if w == parallelWorkerCounts[0] {
				ref, refM = results, m
				continue
			}
			for qi, q := range append(append([]string{}, queries...), limitQuery) {
				if !rowsEqual(ref[qi].Rows, results[qi].Rows) {
					t.Fatalf("mode %v workers %d query %q: rows differ\nseq: %v\npar: %v",
						base.Mode, w, q, ref[qi].Rows, results[qi].Rows)
				}
			}
			if m != refM {
				t.Errorf("mode %v workers %d: metrics differ\nseq: %+v\npar: %+v",
					base.Mode, w, refM, m)
			}
		}
	}
}

// TestParallelScanRowOrder checks file order directly (no ORDER BY): the
// merged stream must interleave nothing across partition boundaries.
func TestParallelScanRowOrder(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 1500)
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		res := mustQuery(t, e, "SELECT id FROM wide")
		if len(res.Rows) != 1500 {
			t.Fatalf("workers %d: %d rows", w, len(res.Rows))
		}
		for i, r := range res.Rows {
			if r[0].Int() != int64(i) {
				t.Fatalf("workers %d: row %d has id %d (order broken)", w, i, r[0].Int())
			}
		}
	}
}

// edgeCatalog registers one two-column (int, text) CSV with raw content.
func edgeCatalog(t *testing.T, content string) *schema.Catalog {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edge.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	tbl, err := schema.New("edge", []schema.Column{
		{Name: "k", Type: datum.Int},
		{Name: "v", Type: datum.Text},
	}, path, schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestParallelScanEdgeCases sweeps worker counts over CSV shapes that
// stress the partition planner: empty file, single line, missing trailing
// newline, lines longer than the read chunk, and split points landing
// inside quote-bearing fields.
func TestParallelScanEdgeCases(t *testing.T) {
	long := strings.Repeat("x", 300)
	cases := map[string]string{
		"empty":              "",
		"single line":        "1,alpha\n",
		"single no newline":  "1,alpha",
		"no trailing":        "1,a\n2,b\n3,c",
		"empty lines inside": "1,a\n\n3,c\n",
		"long lines":         fmt.Sprintf("1,%s\n2,%s\n3,%s\n4,short\n", long, long, long),
		"quoted fields":      "1,\"hello world\"\n2,\"mid \"\" quote\"\n3,\"tail\n",
		"short rows":         "1\n2,b\n3\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			cat := edgeCatalog(t, content)
			var ref *Result
			var refM TableMetrics
			for _, w := range parallelWorkerCounts {
				e := openEngine(t, cat, Options{
					Mode:          ModePMCache,
					Parallelism:   w,
					ScanChunkSize: 64, // smaller than the long lines
				})
				res := mustQuery(t, e, "SELECT k, v FROM edge")
				m := e.Metrics("edge")
				if w == parallelWorkerCounts[0] {
					ref, refM = res, m
					continue
				}
				if !rowsEqual(ref.Rows, res.Rows) {
					t.Fatalf("workers %d: rows differ\nseq: %v\npar: %v", w, ref.Rows, res.Rows)
				}
				if m != refM {
					t.Errorf("workers %d: metrics differ\nseq: %+v\npar: %+v", w, refM, m)
				}
			}
		})
	}
}

// csvSource reaches a table's CSV adapter state through the engine's own
// source registry.
func csvSource(t *testing.T, e *Engine, tbl *schema.Table) *rawTable {
	t.Helper()
	src, err := e.source(tbl)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := src.(*rawTable)
	if !ok {
		t.Fatalf("table %s is not a CSV table", tbl.Name)
	}
	return rt
}

// TestParallelWarmScansStaySequential pins the gating rule: once the
// positional map or cache hold content, scans go back to the sequential
// path that can exploit them.
func TestParallelWarmScansStaySequential(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 300)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 8})
	rt := csvSource(t, e, cat.Tables()[0])
	if got := rt.ScanWorkers(); got != 8 {
		t.Fatalf("cold table should allow 8 workers, got %d", got)
	}
	mustQuery(t, e, "SELECT a FROM wide WHERE id < 10")
	if got := rt.ScanWorkers(); got != 1 {
		t.Errorf("warm table must scan sequentially, got %d workers", got)
	}
	// Invalidation makes the table cold again.
	e.Invalidate("wide")
	if got := rt.ScanWorkers(); got != 8 {
		t.Errorf("invalidated table should allow 8 workers again, got %d", got)
	}
}

// TestParallelScanError ensures a malformed value aborts the parallel scan
// with the same error the sequential scan reports — including the absolute
// row number, rebased from the erroring partition's local count.
func TestParallelScanError(t *testing.T) {
	cat := edgeCatalog(t, "1,a\n2,b\nbroken,c\n4,d\n")
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		_, err := e.Query("SELECT k FROM edge")
		if err == nil {
			t.Errorf("workers %d: malformed int must error", w)
		} else if !strings.Contains(err.Error(), "row 3") {
			t.Errorf("workers %d: error should locate absolute row 3: %v", w, err)
		}
	}
}

// TestParallelScanLimitTeardown exercises early Close: a LIMIT consumes a
// prefix and tears the workers down mid-flight without deadlock or leaked
// state corruption; a following full query still answers correctly.
func TestParallelScanLimitTeardown(t *testing.T) {
	const rows, workers = 2400, 8
	dir := t.TempDir()
	cat := buildFixture(t, dir, rows)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers, ScanChunkSize: 1 << 12})
	res := mustQuery(t, e, "SELECT id FROM wide LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	m := e.Metrics("wide")
	if m.Rows != -1 {
		t.Errorf("row count must stay unknown after a partial scan, got %d", m.Rows)
	}
	// Partitions read to their end before the teardown reached their worker
	// merge back, like an aborted sequential scan keeping the recordings it
	// made before stopping. A worker notices teardown only when it emits, a
	// refused last message still counts as a full read (format.PumpRows),
	// and the LIMIT is met from partition 0's first message — so a
	// partition 0 of fewer than two messages is always merged.
	raw, err := os.ReadFile(filepath.Join(dir, "wide.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw[:len(raw)/workers], []byte("\n")) + 1; n >= 2*format.BatchRowsPerMsg {
		t.Fatalf("fixture: partition 0 holds %d rows, want fewer than two %d-row messages", n, format.BatchRowsPerMsg)
	}
	if m.PMPointers == 0 {
		t.Error("torn-down parallel scan should retain partition 0's positional-map work")
	}
	res = mustQuery(t, e, "SELECT count(*) FROM wide")
	if res.Rows[0][0].Int() != rows {
		t.Errorf("count after torn-down scan = %v", res.Rows[0])
	}
}

// TestParallelBudgetedStaysSequential pins the memory rule: budgeted
// configurations never take the parallel path, because per-worker shards
// are unbounded until merge.
func TestParallelBudgetedStaysSequential(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 100)
	for _, opts := range []Options{
		{Mode: ModePMCache, Parallelism: 8, PMBudget: 1 << 20},
		{Mode: ModePMCache, Parallelism: 8, CacheBudget: 1 << 20},
	} {
		e := openEngine(t, cat, opts)
		if got := csvSource(t, e, cat.Tables()[0]).ScanWorkers(); got != 1 {
			t.Errorf("opts %+v: budgeted engine must scan sequentially, got %d workers", opts, got)
		}
	}
}

// TestParallelAcrossAppends: growth is picked up by the next (cold or
// sequential) scan identically for any worker count.
func TestParallelAcrossAppends(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 100)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 8})
	if got := mustQuery(t, e, "SELECT count(*) FROM wide").Rows[0][0].Int(); got != 100 {
		t.Fatalf("initial count = %d", got)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wide.csv"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 160; i++ {
		fmt.Fprintf(f, "%d,%d,%d,%g,name%d,1996-01-01\n", i, i%7, i*3, float64(i)/4, i%5)
	}
	f.Close()
	if got := mustQuery(t, e, "SELECT count(*) FROM wide").Rows[0][0].Int(); got != 160 {
		t.Errorf("count after append = %d", got)
	}
}

// TestPooledReadBufferNotAliased: scans recycle their read buffers
// (scan.LineReader.Release at scan Close), so nothing a scan hands out —
// result rows, cached Text values — may still point into a buffer once it
// is back in the pool. Scans of a second table refill the recycled
// buffers with other bytes in between; the first table's results and its
// cache must not notice.
func TestPooledReadBufferNotAliased(t *testing.T) {
	dir := t.TempDir()
	cat := buildFixture(t, dir, 400)
	other := filepath.Join(dir, "other.csv")
	if err := os.WriteFile(other, []byte(strings.Repeat("ZZZZZZZZZZZZ,QQQQQQQQQQQQ\n", 2000)), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := schema.New("other", []schema.Column{
		{Name: "x", Type: datum.Text}, {Name: "y", Type: datum.Text},
	}, other, schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	check := func(what string, res *Result) {
		t.Helper()
		if len(res.Rows) != 400 {
			t.Fatalf("%s: %d rows", what, len(res.Rows))
		}
		for id, row := range res.Rows {
			if got, want := row[1].Text(), fmt.Sprintf("name%d", id%5); row[0].Int() != int64(id) || got != want {
				t.Fatalf("%s: row %d = (%v, %q), want (%d, %q)", what, id, row[0], got, id, want)
			}
		}
	}
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		cold := mustQuery(t, e, "SELECT id, name FROM wide")
		for i := 0; i < 3; i++ {
			if n := len(mustQuery(t, e, "SELECT y FROM other WHERE x = 'ZZZZZZZZZZZZ' LIMIT 1500").Rows); n != 1500 {
				t.Fatalf("other: %d rows", n)
			}
		}
		check(fmt.Sprintf("workers %d, rows of the cold scan", w), cold)
		check(fmt.Sprintf("workers %d, cache scan", w), mustQuery(t, e, "SELECT id, name FROM wide"))
	}
}
