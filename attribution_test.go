package nodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/fits"
	"nodb/internal/qtrace"
)

// attribFixture builds a catalog with one table per raw format — csv,
// jsonl and fits — all carrying the same logical rows, so one test body
// can sweep every pipeline.
func attribFixture(t *testing.T, rows int) *Catalog {
	t.Helper()
	dir := t.TempDir()

	var csv, jsonl strings.Builder
	fitsRows := make([][]datum.Datum, rows)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "city%d,%d,%d.5\n", i%4, i, i*2)
		fmt.Fprintf(&jsonl, `{"city":"city%d","id":%d,"distance":%d.5}`+"\n", i%4, i, i*2)
		fitsRows[i] = []datum.Datum{datum.NewInt(int64(i)), datum.NewFloat(float64(i*2) + 0.5)}
	}
	csvPath := filepath.Join(dir, "t.csv")
	jsonlPath := filepath.Join(dir, "t.jsonl")
	fitsPath := filepath.Join(dir, "t.fits")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonlPath, []byte(jsonl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fits.WriteTable(fitsPath, []fits.Column{
		{Name: "id", Type: fits.Int64}, {Name: "distance", Type: fits.Float64},
	}, fitsRows); err != nil {
		t.Fatal(err)
	}

	cat := NewCatalog()
	if err := cat.AddCSV("tcsv", csvPath,
		Col("city", Text), Col("id", Int), Col("distance", Float)); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddJSONL("tjsonl", jsonlPath,
		Col("city", Text), Col("id", Int), Col("distance", Float)); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFITS("tfits", fitsPath,
		Col("id", Int), Col("distance", Float)); err != nil {
		t.Fatal(err)
	}
	return cat
}

// profiledQuery runs one query under WithProfile and returns its profile.
func profiledQuery(t *testing.T, db *DB, sql string) *Profile {
	t.Helper()
	ctx := WithProfile(context.Background())
	rows, err := db.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows.Profile()
}

// checkPhaseAccount asserts the phase-time invariants every finished
// profile must satisfy: the disjoint top-level phases plus the residual
// equal wall time exactly, and the scan detail phases nest inside execute.
func checkPhaseAccount(t *testing.T, p *Profile, label string) {
	t.Helper()
	ph := p.Phases
	if p.WallNS <= 0 {
		t.Errorf("%s: wall = %d", label, p.WallNS)
	}
	if sum := ph.TopLevelNS() + ph.OtherNS; sum != p.WallNS {
		t.Errorf("%s: queue+plan+bind+execute+other = %d, wall = %d", label, sum, p.WallNS)
	}
	if ph.TopLevelNS() > p.WallNS {
		t.Errorf("%s: top-level phases %d exceed wall %d", label, ph.TopLevelNS(), p.WallNS)
	}
	// Lock wait and the per-pull scan phases happen strictly inside the
	// execute window of a sequential query.
	if detail := ph.LockWaitNS + ph.RawScanNS + ph.CacheScanNS; detail > ph.ExecuteNS {
		t.Errorf("%s: scan detail %d exceeds execute %d", label, detail, ph.ExecuteNS)
	}
}

// counterViews snapshots the table-scope counters as two views: the
// named tables' metrics summed, and the engine-wide Stats.
type counterViews struct{ tables, engine qtrace.ScanTotals }

func snapshotViews(db *DB, tables ...string) counterViews {
	var sum qtrace.Counts
	for _, name := range tables {
		m := db.Metrics(name)
		for _, c := range qtrace.TableCounters() {
			sum[c] += m.Get(c)
		}
	}
	return counterViews{tables: qtrace.Totals(&sum), engine: db.Stats().ScanTotals}
}

// checkCountersMatchMetrics asserts that, on a single-query engine, every
// table-scope counter of the per-query profile equals the delta of the
// table metrics and of the engine-wide Stats — the profile is the
// per-query slice of the same account.
func checkCountersMatchMetrics(t *testing.T, label string, p *Profile, before, after counterViews) {
	t.Helper()
	for _, c := range qtrace.TableCounters() {
		if d := after.tables.Get(c) - before.tables.Get(c); p.Ctrs.Get(c) != d {
			t.Errorf("%s: profile %s = %d, metrics delta = %d", label, c, p.Ctrs.Get(c), d)
		}
		if d := after.engine.Get(c) - before.engine.Get(c); p.Ctrs.Get(c) != d {
			t.Errorf("%s: profile %s = %d, stats delta = %d", label, c, p.Ctrs.Get(c), d)
		}
	}
}

// TestAttributionColdWarm sweeps cold-then-warm over every format and
// checks that the profile (a) balances its phase account, (b) matches the
// engine metrics delta counter-for-counter, and (c) shows the paper's
// cost shift: raw-scan time and parsed tuples cold, cache-scan time and
// cache hits warm.
func TestAttributionColdWarm(t *testing.T) {
	const rows = 500
	for _, table := range []string{"tcsv", "tjsonl", "tfits"} {
		t.Run(table, func(t *testing.T) {
			db, err := Open(attribFixture(t, rows), Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sql := "SELECT id, distance FROM " + table + " WHERE id >= 0"

			before := snapshotViews(db, table)
			cold := profiledQuery(t, db, sql)
			mid := snapshotViews(db, table)
			checkPhaseAccount(t, cold, table+"/cold")
			checkCountersMatchMetrics(t, table+"/cold", cold, before, mid)
			if cold.Ctrs.RowsOut != rows {
				t.Errorf("cold rows_out = %d", cold.Ctrs.RowsOut)
			}
			if cold.Ctrs.ColdScans != 1 || cold.Ctrs.WarmScans != 0 {
				t.Errorf("cold scan counts = %+v", cold.Ctrs)
			}
			if cold.Ctrs.TuplesParsed == 0 {
				t.Errorf("cold scan parsed no tuples: %+v", cold.Ctrs)
			}
			if cold.Phases.RawScanNS == 0 {
				t.Errorf("cold scan attributed no raw-scan time: %+v", cold.Phases)
			}
			if cold.Ctrs.IOBytes == 0 || cold.Ctrs.IOReads == 0 {
				t.Errorf("cold scan attributed no IO: %+v", cold.Ctrs)
			}

			warm := profiledQuery(t, db, sql)
			after := snapshotViews(db, table)
			checkPhaseAccount(t, warm, table+"/warm")
			checkCountersMatchMetrics(t, table+"/warm", warm, mid, after)
			if warm.Ctrs.WarmScans != 1 || warm.Ctrs.ColdScans != 0 {
				t.Errorf("warm scan counts = %+v", warm.Ctrs)
			}
			if warm.Ctrs.TuplesParsed != 0 {
				t.Errorf("warm scan re-parsed %d tuples", warm.Ctrs.TuplesParsed)
			}
			if warm.Ctrs.CacheHits == 0 {
				t.Errorf("warm scan hit no cache: %+v", warm.Ctrs)
			}
			if warm.Phases.CacheScanNS == 0 {
				t.Errorf("warm scan attributed no cache-scan time: %+v", warm.Phases)
			}
			if warm.Phases.RawScanNS != 0 {
				t.Errorf("warm scan attributed raw-scan time: %+v", warm.Phases)
			}
		})
	}
}

// TestAttributionParallelWorkers runs a cold scan through the partitioned
// worker pool and checks that per-worker spans and counters merge into the
// profile without double counting: the profile still equals the metrics
// delta, and IO covers the file exactly once.
func TestAttributionParallelWorkers(t *testing.T) {
	const rows = 4000
	for _, table := range []string{"tcsv", "tjsonl"} {
		t.Run(table, func(t *testing.T) {
			db, err := Open(attribFixture(t, rows), Options{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sql := "SELECT id, distance FROM " + table + " WHERE id >= 0"

			before := snapshotViews(db, table)
			cold := profiledQuery(t, db, sql)
			after := snapshotViews(db, table)
			checkCountersMatchMetrics(t, table+"/parallel-cold", cold, before, after)
			if cold.Ctrs.Workers < 2 {
				t.Fatalf("parallel scan used %d workers", cold.Ctrs.Workers)
			}
			if cold.Ctrs.RowsOut != rows {
				t.Errorf("rows_out = %d", cold.Ctrs.RowsOut)
			}
			// Tuples parse exactly once across all workers.
			if cold.Ctrs.TuplesParsed != rows {
				t.Errorf("tuples_parsed = %d, want %d", cold.Ctrs.TuplesParsed, rows)
			}
			// The sections tile the file: counted IO bytes must equal the
			// file size exactly (no section read twice, none skipped).
			tblName := map[string]string{"tcsv": "t.csv", "tjsonl": "t.jsonl"}[table]
			var path string
			for _, tb := range db.Tables() {
				if filepath.Base(tb.Path) == tblName {
					path = tb.Path
				}
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Ctrs.IOBytes != fi.Size() {
				t.Errorf("io_bytes = %d, file size = %d", cold.Ctrs.IOBytes, fi.Size())
			}
			// IO time is summed across workers and may exceed wall time, but
			// the top-level account still balances.
			checkPhaseAccount(t, cold, table+"/parallel-cold")
		})
	}
}

// TestAttributionOperatorTree checks the span tree: rows attributed to
// each operator are consistent (child rows >= parent rows under a filter,
// scan rows equal the table), and the tree mirrors the plan shape.
func TestAttributionOperatorTree(t *testing.T) {
	const rows = 300
	db, err := Open(attribFixture(t, rows), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	p := profiledQuery(t, db, "SELECT city, count(*) FROM tcsv WHERE id < 100 GROUP BY city")
	if p.Plan == nil {
		t.Fatal("profile has no operator tree")
	}
	// Walk to the scan leaf, recording the path.
	var labels []string
	node := p.Plan
	for {
		labels = append(labels, node.Label)
		if len(node.Children) == 0 {
			break
		}
		node = &node.Children[0]
	}
	path := strings.Join(labels, " <- ")
	if !strings.HasPrefix(node.Label, "scan tcsv") {
		t.Errorf("leaf is %q (path %s)", node.Label, path)
	}
	if node.Rows != 100 {
		t.Errorf("scan produced %d rows, want 100 (predicate pushed to scan)", node.Rows)
	}
	if p.Plan.Rows != 4 {
		t.Errorf("root produced %d rows, want 4 groups", p.Plan.Rows)
	}
	// Times nest: a parent operator's clock includes its children.
	if node.NS > p.Plan.NS {
		t.Errorf("leaf time %d exceeds root time %d", node.NS, p.Plan.NS)
	}
}

// TestAttributionJoin: a join reads two tables in one query; the profile's
// counters must still equal the engine-wide deltas exactly — here the sum
// of both tables' metric deltas — cold (both inputs read through the
// in-situ batch path) and warm (both through the cache's).
func TestAttributionJoin(t *testing.T) {
	const rows = 500
	db, err := Open(attribFixture(t, rows), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sql := "SELECT c.id, j.distance FROM tcsv c, tjsonl j WHERE c.id = j.id AND j.distance >= 0"
	sum := func() counterViews { return snapshotViews(db, "tcsv", "tjsonl") }

	before := sum()
	cold := profiledQuery(t, db, sql)
	mid := sum()
	checkPhaseAccount(t, cold, "join/cold")
	checkCountersMatchMetrics(t, "join/cold", cold, before, mid)
	if cold.Ctrs.RowsOut != rows || cold.Ctrs.ColdScans != 2 || cold.Ctrs.TuplesParsed != 2*rows {
		t.Errorf("cold join: rows_out=%d cold_scans=%d tuples_parsed=%d", cold.Ctrs.RowsOut, cold.Ctrs.ColdScans, cold.Ctrs.TuplesParsed)
	}

	warm := profiledQuery(t, db, sql)
	checkPhaseAccount(t, warm, "join/warm")
	checkCountersMatchMetrics(t, "join/warm", warm, mid, sum())
	if warm.Ctrs.RowsOut != rows || warm.Ctrs.WarmScans != 2 || warm.Ctrs.TuplesParsed != 0 || warm.Ctrs.CacheHits == 0 {
		t.Errorf("warm join: rows_out=%d warm_scans=%d tuples_parsed=%d cache_hits=%d",
			warm.Ctrs.RowsOut, warm.Ctrs.WarmScans, warm.Ctrs.TuplesParsed, warm.Ctrs.CacheHits)
	}
}
