package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nodb/internal/datum"
	"nodb/internal/fits"
	"nodb/internal/schema"
	"nodb/internal/testutil"
)

// formatFixture writes the same logical table — obs(id int, mag float,
// flux float) with id = 0..n-1, mag = id/2, flux = 3*id with NULL-free
// numeric content (FITS has no NULLs) — as CSV, FITS and JSON-Lines, and
// returns a catalog with tables obs_csv, obs_fits, obs_jsonl.
func formatFixture(t testing.TB, dir string, n int) *schema.Catalog {
	t.Helper()
	cols := []schema.Column{
		{Name: "id", Type: datum.Int},
		{Name: "mag", Type: datum.Float},
		{Name: "flux", Type: datum.Float},
	}
	var csv, jl strings.Builder
	fitsRows := make([][]datum.Datum, 0, n)
	for i := 0; i < n; i++ {
		mag := float64(i) / 2
		flux := float64(3 * i)
		fmt.Fprintf(&csv, "%d,%g,%g\n", i, mag, flux)
		fmt.Fprintf(&jl, `{"id": %d, "mag": %g, "flux": %g}`+"\n", i, mag, flux)
		fitsRows = append(fitsRows, []datum.Datum{
			datum.NewInt(int64(i)), datum.NewFloat(mag), datum.NewFloat(flux),
		})
	}
	csvPath := filepath.Join(dir, "obs.csv")
	jlPath := filepath.Join(dir, "obs.jsonl")
	fitsPath := filepath.Join(dir, "obs.fits")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jlPath, []byte(jl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fits.WriteTable(fitsPath, []fits.Column{
		{Name: "id", Type: fits.Int64},
		{Name: "mag", Type: fits.Float64},
		{Name: "flux", Type: fits.Float64},
	}, fitsRows); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	for name, spec := range map[string]struct {
		path string
		f    schema.Format
	}{
		"obs_csv":   {csvPath, schema.CSV},
		"obs_fits":  {fitsPath, schema.FITS},
		"obs_jsonl": {jlPath, schema.JSONL},
	} {
		tbl, err := schema.New(name, cols, spec.path, spec.f)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

var crossFormatQueries = []string{
	"SELECT id, mag, flux FROM %s",
	"SELECT mag FROM %s WHERE id >= 100 AND flux < 900",
	"SELECT count(*), min(mag), max(flux), avg(mag) FROM %s WHERE mag >= 10",
	"SELECT id FROM %s LIMIT 7",
	"SELECT flux, mag FROM %s WHERE mag BETWEEN 20 AND 40",
}

// TestCrossFormatEquivalence is the cross-format suite: for every format,
// parallel (workers 1/2/8) scans are bit-identical to sequential ones,
// wide and one-row batches are byte-identical, per-table metrics are
// equal across passes — and all three formats agree on every query.
func TestCrossFormatEquivalence(t *testing.T) {
	dir := t.TempDir()
	const n = 700
	for _, table := range []string{"obs_csv", "obs_fits", "obs_jsonl"} {
		t.Run(table, func(t *testing.T) {
			// Sequential one-row-batch reference.
			ref := openEngine(t, formatFixture(t, t.TempDir(), n), Options{
				Mode: ModePMCache, Parallelism: 1, DisableVectorized: true,
			})
			var want []*Result
			var wantM []TableMetrics
			for _, q := range crossFormatQueries {
				want = append(want, mustQuery(t, ref, fmt.Sprintf(q, table)))
				wantM = append(wantM, ref.Metrics(table))
			}
			for _, w := range []int{1, 2, 8} {
				for _, vec := range []bool{false, true} {
					e := openEngine(t, formatFixture(t, t.TempDir(), n), Options{
						Mode: ModePMCache, Parallelism: w, DisableVectorized: !vec,
					})
					for qi, q := range crossFormatQueries {
						got := mustQuery(t, e, fmt.Sprintf(q, table))
						if !reflect.DeepEqual(got.Rows, want[qi].Rows) {
							t.Fatalf("workers=%d vectorized=%v query %q differs from the sequential one-row-batch reference",
								w, vec, q)
						}
						// Metrics equal across execution strategies. The
						// LIMIT query is exempt: how far a scan overshoots a
						// limit legitimately depends on batch shape (PR 2).
						if !strings.Contains(q, "LIMIT") {
							if m := e.Metrics(table); m != wantM[qi] {
								t.Errorf("workers=%d vectorized=%v after %q: metrics differ\nref: %+v\ngot: %+v",
									w, vec, q, wantM[qi], m)
							}
						}
					}
				}
			}
		})
	}

	// All three formats agree with each other.
	e := openEngine(t, formatFixture(t, dir, n), Options{Mode: ModePMCache})
	for _, q := range crossFormatQueries {
		base := mustQuery(t, e, fmt.Sprintf(q, "obs_csv"))
		for _, other := range []string{"obs_fits", "obs_jsonl"} {
			got := mustQuery(t, e, fmt.Sprintf(q, other))
			if !reflect.DeepEqual(got.Rows, base.Rows) {
				t.Errorf("query %q: %s disagrees with obs_csv", q, other)
			}
		}
	}
}

// TestFITSParallelSharesPipeline pins the acceptance criterion: a FITS
// scan with Parallelism=8 returns rows bit-identical to the sequential
// scan while actually flowing through the worker-pool/merge pipeline, and
// the merged cache serves identical warm scans.
func TestFITSParallelSharesPipeline(t *testing.T) {
	// Partitions split on 1024-row chunk boundaries: 2000 rows give two
	// ranges, 2500 three, and 700 — less than a chunk — one.
	for _, tc := range []struct{ n, workers int64 }{{2000, 2}, {2500, 3}, {700, 1}} {
		t.Run(fmt.Sprintf("rows=%d", tc.n), func(t *testing.T) {
			n := tc.n
			seqE := openEngine(t, formatFixture(t, t.TempDir(), int(n)), Options{Mode: ModePMCache, Parallelism: 1})
			parE := openEngine(t, formatFixture(t, t.TempDir(), int(n)), Options{Mode: ModePMCache, Parallelism: 8})
			q := "SELECT id, mag, flux FROM obs_fits WHERE flux >= 30"
			seqCold, parCold := mustQuery(t, seqE, q), mustQuery(t, parE, q)
			if !reflect.DeepEqual(seqCold.Rows, parCold.Rows) {
				t.Fatal("parallel FITS cold scan differs from sequential")
			}
			seqWarm, parWarm := mustQuery(t, seqE, q), mustQuery(t, parE, q)
			if !reflect.DeepEqual(seqWarm.Rows, parWarm.Rows) {
				t.Fatal("parallel FITS warm scan differs from sequential")
			}
			sm, pm := seqE.Metrics("obs_fits"), parE.Metrics("obs_fits")
			if sm != pm {
				t.Errorf("metrics differ\nseq: %+v\npar: %+v", sm, pm)
			}
			if pm.TuplesParsed != n {
				t.Errorf("TuplesParsed = %d; the warm pass must serve from the merged cache", pm.TuplesParsed)
			}
			cold := openEngine(t, formatFixture(t, t.TempDir(), int(n)), Options{Mode: ModePMCache, Parallelism: 8})
			if w := profileQuery(t, cold, q).Ctrs.Workers; w != tc.workers {
				t.Errorf("parallel cold pass ran %d workers, want %d", w, tc.workers)
			}
		})
	}
}

// TestConcurrentWarmFITSScansOverlap proves the old one-scan-at-a-time
// FITS mutex is gone: with the cache warm, a session holding a FITS scan
// open mid-stream must not block other warm scans — they acquire the
// table lock shared and genuinely overlap.
func TestConcurrentWarmFITSScansOverlap(t *testing.T) {
	e := openEngine(t, formatFixture(t, t.TempDir(), 3000), Options{Mode: ModePMCache})
	warm := mustQuery(t, e, "SELECT id, mag FROM obs_fits")

	p, err := e.PrepareStmt("SELECT id, mag FROM obs_fits")
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := p.Plan(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if _, err := op.NextBatch(); err != nil { // scan held open mid-stream
		t.Fatal(err)
	}

	// Concurrent warm queries must complete while the first scan is open.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := e.Query("SELECT id, mag FROM obs_fits")
			if err == nil && len(res.Rows) != len(warm.Rows) {
				err = fmt.Errorf("rows = %d, want %d", len(res.Rows), len(warm.Rows))
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("warm FITS scans serialized: concurrent query blocked behind an open scan")
		}
	}
}

// TestCancelMidFITSScan cancels a FITS scan mid-flight (sequential and
// partitioned) and checks that it aborts with the context error without
// leaking goroutines or file descriptors, and that the table stays
// usable.
func TestCancelMidFITSScan(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			cat := formatFixture(t, t.TempDir(), 30000)
			e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers})

			// Bind the source first: the FITS adapter holds one per-table
			// file handle for its lifetime (scans issue positioned reads
			// against it), which is engine state, not scan state.
			if _, err := e.Table("obs_fits"); err != nil {
				t.Fatal(err)
			}
			checkLeaks := testutil.CheckLeaks(t)

			ctx, cancel := context.WithCancel(context.Background())
			p, err := e.PrepareStmt("SELECT id, mag FROM obs_fits")
			if err != nil {
				t.Fatal(err)
			}
			op, _, err := p.Plan(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if _, err := op.NextBatch(); err != nil {
				t.Fatal(err)
			}
			cancel()
			var lastErr error
			for i := 0; i < 200000; i++ {
				if _, lastErr = op.NextBatch(); lastErr != nil {
					break
				}
			}
			if !errors.Is(lastErr, context.Canceled) {
				t.Errorf("iteration error = %v, want context.Canceled", lastErr)
			}
			if err := op.Close(); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("close: %v", err)
			}

			res, err := e.QueryContext(context.Background(), "SELECT count(*) FROM obs_fits", nil, nil)
			if err != nil {
				t.Fatalf("post-cancel query: %v", err)
			}
			if res.Rows[0][0].Int() != 30000 {
				t.Errorf("post-cancel count = %v", res.Rows[0][0])
			}

			checkLeaks()
		})
	}
}

// TestCancelMidJSONLScan is the JSON-Lines twin of TestCancelMidFITSScan:
// cancelling a cold scan mid-flight (sequential and partitioned) must
// surface the context error, release the table, and leave no goroutines
// or file descriptors behind.
func TestCancelMidJSONLScan(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			cat := formatFixture(t, t.TempDir(), 30000)
			e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers})

			checkLeaks := testutil.CheckLeaks(t)

			ctx, cancel := context.WithCancel(context.Background())
			p, err := e.PrepareStmt("SELECT id, mag FROM obs_jsonl")
			if err != nil {
				t.Fatal(err)
			}
			op, _, err := p.Plan(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if _, err := op.NextBatch(); err != nil {
				t.Fatal(err)
			}
			cancel()
			var lastErr error
			for i := 0; i < 200000; i++ {
				if _, lastErr = op.NextBatch(); lastErr != nil {
					break
				}
			}
			if !errors.Is(lastErr, context.Canceled) {
				t.Errorf("iteration error = %v, want context.Canceled", lastErr)
			}
			if err := op.Close(); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("close: %v", err)
			}

			res, err := e.QueryContext(context.Background(), "SELECT count(*) FROM obs_jsonl", nil, nil)
			if err != nil {
				t.Fatalf("post-cancel query: %v", err)
			}
			if res.Rows[0][0].Int() != 30000 {
				t.Errorf("post-cancel count = %v", res.Rows[0][0])
			}

			checkLeaks()
		})
	}
}

// TestFITSModePMKeepsCache: binary formats have no use for a positional
// map (attribute positions are implicit in fixed-width rows), so every
// engine mode that keeps adaptive state — including pm-only — maps to the
// binary cache for FITS. Warm scans must not re-read the file; only the
// external-files straw man stays stateless.
func TestFITSModePMKeepsCache(t *testing.T) {
	cat := formatFixture(t, t.TempDir(), 500)
	e := openEngine(t, cat, Options{Mode: ModePM})
	mustQuery(t, e, "SELECT mag FROM obs_fits")
	m1 := e.Metrics("obs_fits")
	if m1.CacheBytes == 0 {
		t.Fatalf("pm-only mode must still cache FITS columns: %+v", m1)
	}
	mustQuery(t, e, "SELECT mag FROM obs_fits")
	if m2 := e.Metrics("obs_fits"); m2.TuplesParsed != m1.TuplesParsed {
		t.Errorf("warm pm-mode FITS scan re-read the file: %+v -> %+v", m1, m2)
	}

	ext := openEngine(t, formatFixture(t, t.TempDir(), 500), Options{Mode: ModeExternalFiles})
	mustQuery(t, ext, "SELECT mag FROM obs_fits")
	mustQuery(t, ext, "SELECT mag FROM obs_fits")
	if m := ext.Metrics("obs_fits"); m.CacheBytes != 0 || m.TuplesParsed != 1000 {
		t.Errorf("external-files FITS must keep no state and re-read per query: %+v", m)
	}
}

// TestLoadFirstCapabilityGate: the load-first rejection comes from the
// adapter's Open, not a format-name comparison in the engine — and it
// names the paper's reasoning for FITS. The loaded CSV source is not a
// format.Appender, so INSERT fails like it does for any format that
// cannot append.
func TestLoadFirstCapabilityGate(t *testing.T) {
	cat := formatFixture(t, t.TempDir(), 10)
	e := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: t.TempDir()})
	if _, err := e.Query("SELECT count(*) FROM obs_fits"); err == nil ||
		!strings.Contains(err.Error(), "bulk-loaded") {
		t.Errorf("FITS load error = %v", err)
	}
	if _, err := e.Query("SELECT count(*) FROM obs_jsonl"); err == nil ||
		!strings.Contains(err.Error(), "bulk-loaded") {
		t.Errorf("JSONL load error = %v", err)
	}
	// CSV is loadable.
	if res, err := e.Query("SELECT count(*) FROM obs_csv"); err != nil || res.Rows[0][0].Int() != 10 {
		t.Errorf("CSV load-first: %v %v", res, err)
	}
	if _, _, err := e.Exec("INSERT INTO obs_csv VALUES (100, 2.0, 3.0)"); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Errorf("INSERT into a loaded table: err = %v", err)
	}
}

// TestInsertAppenderCapability: INSERT routes through the Appender
// capability — CSV and JSON-Lines implement it, binary FITS (whose header
// fixes NAXIS2) rejects with a clear error.
func TestInsertAppenderCapability(t *testing.T) {
	cat := formatFixture(t, t.TempDir(), 10)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	if _, _, err := e.Exec("INSERT INTO obs_fits VALUES (1, 2.0, 3.0)"); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Errorf("INSERT into obs_fits: err = %v", err)
	}
	for _, table := range []string{"obs_csv", "obs_jsonl"} {
		if _, _, err := e.Exec(fmt.Sprintf("INSERT INTO %s VALUES (100, 2.0, 3.0)", table)); err != nil {
			t.Errorf("INSERT into %s: %v", table, err)
			continue
		}
		res := mustQuery(t, e, fmt.Sprintf("SELECT mag, flux FROM %s WHERE id = 100", table))
		if len(res.Rows) != 1 || res.Rows[0][0].Float() != 2.0 || res.Rows[0][1].Float() != 3.0 {
			t.Errorf("%s: appended row not visible: %v", table, res.Rows)
		}
	}
}

// TestSchemaFileFormatsEndToEnd: a schema file declaring all three formats
// (explicit clause and extension inference) loads and queries end to end,
// and unknown formats are rejected naming the registered ones.
func TestSchemaFileFormatsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	formatFixture(t, dir, 50) // writes obs.csv / obs.fits / obs.jsonl
	body := `# three formats, one scan machinery
table obs_csv from obs.csv format csv
  id int
  mag float
  flux float
end
table obs_fits from obs.fits
  id int
  mag float
  flux float
end
table obs_jsonl from obs.jsonl delim comma format jsonl
  id int
  mag float
  flux float
end
`
	path := filepath.Join(dir, "obs.nodb")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	if err := cat.LoadFile(path, dir); err != nil {
		t.Fatal(err)
	}
	tbl, ok := cat.Lookup("obs_fits")
	if !ok || tbl.Format != schema.FITS {
		t.Fatalf("fits table not inferred from extension: %+v", tbl)
	}
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	for _, table := range []string{"obs_csv", "obs_fits", "obs_jsonl"} {
		res := mustQuery(t, e, "SELECT count(*) FROM "+table)
		if res.Rows[0][0].Int() != 50 {
			t.Errorf("%s count = %v", table, res.Rows[0])
		}
	}

	// Unknown format: rejected at load time, naming the registered ones.
	bad := filepath.Join(dir, "bad.nodb")
	if err := os.WriteFile(bad, []byte("table t from t.xml format xml\n  a int\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := schema.NewCatalog().LoadFile(bad, dir)
	if err == nil || !strings.HasPrefix(err.Error(), "schema:") ||
		!strings.Contains(err.Error(), "registered formats") ||
		!strings.Contains(err.Error(), "jsonl") {
		t.Errorf("unknown format error = %v", err)
	}
}

// TestJSONLEngineModes: the JSONL adapter honors the engine modes through
// the shared Env derivation (pm-only keeps no cache, external-files keeps
// nothing).
func TestJSONLEngineModes(t *testing.T) {
	for _, opts := range []Options{
		{Mode: ModePMCache}, {Mode: ModePM}, {Mode: ModeCache}, {Mode: ModeExternalFiles},
		{Mode: ModeExternalFiles, FullParse: true},
	} {
		mode := opts.Mode
		cat := formatFixture(t, t.TempDir(), 60)
		e := openEngine(t, cat, opts)
		want := mustQuery(t, e, "SELECT id, mag FROM obs_jsonl WHERE id < 30")
		if len(want.Rows) != 30 {
			t.Fatalf("%+v: rows = %d", opts, len(want.Rows))
		}
		again := mustQuery(t, e, "SELECT id, mag FROM obs_jsonl WHERE id < 30")
		if !reflect.DeepEqual(want.Rows, again.Rows) {
			t.Errorf("%+v: warm scan differs", opts)
		}
		m := e.Metrics("obs_jsonl")
		switch mode {
		case ModePM:
			if m.CacheBytes != 0 || m.PMPointers == 0 {
				t.Errorf("pm mode metrics = %+v", m)
			}
		case ModeExternalFiles:
			if m.CacheBytes != 0 || m.PMPointers != 0 {
				t.Errorf("external-files mode metrics = %+v", m)
			}
			if m.TuplesParsed != 120 {
				t.Errorf("external-files must re-parse per query: %+v", m)
			}
			// The straw man converts every declared field of every tuple,
			// exactly as on CSV.
			if opts.FullParse && m.FieldsParsed != m.TuplesParsed*3 {
				t.Errorf("full parse converted %d fields of %d tuples x 3 columns", m.FieldsParsed, m.TuplesParsed)
			}
		case ModeCache, ModePMCache:
			if m.CacheBytes == 0 {
				t.Errorf("mode %v metrics = %+v", mode, m)
			}
		}
	}
}
