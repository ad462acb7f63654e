package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodb/internal/datum"
	"nodb/internal/fits"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/schema"
	"nodb/internal/testutil"
)

// The fault matrix: {EIO, vanish, truncate, mutate, append-fault} ×
// {cold, warm, parallel} × {csv, jsonl, fits}, asserting the robustness
// contract end to end — every query returns rows consistent with exactly
// one version of the raw file, or a typed error (never silently wrong
// rows), and neither goroutines nor file descriptors leak across faults.

var faultFormats = []string{"csv", "jsonl", "fits"}

// faultValue is the v column of row i under file version mul. The digit
// count is constant for any single-digit mul and i < 100000, so versions
// differing only in mul are byte-identical in size — the same-size
// in-place edit the mutate cell needs (FITS rows are fixed width anyway).
func faultValue(i int, mul int64) int64 { return mul*100000 + int64(i) }

// writeFaultTable writes table t(id int, v int) with id = 0..n-1 and
// v = faultValue(id, mul) in the given format. Rewriting with a smaller n
// models an external truncation; a different mul a same-size edit.
func writeFaultTable(t *testing.T, formatName, path string, n int, mul int64) {
	t.Helper()
	switch formatName {
	case "csv":
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%d,%d\n", i, faultValue(i, mul))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	case "jsonl":
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, `{"id":%d,"v":%d}`+"\n", i, faultValue(i, mul))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	case "fits":
		rows := make([][]datum.Datum, n)
		for i := 0; i < n; i++ {
			rows[i] = []datum.Datum{datum.NewInt(int64(i)), datum.NewInt(faultValue(i, mul))}
		}
		if err := fits.WriteTable(path, []fits.Column{
			{Name: "id", Type: fits.Int64},
			{Name: "v", Type: fits.Int64},
		}, rows); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown format %q", formatName)
	}
}

// rewriteFaultTable replaces the file content and forces a distinct mtime,
// so tests do not depend on filesystem timestamp granularity.
func rewriteFaultTable(t *testing.T, formatName, path string, n int, mul int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFaultTable(t, formatName, path, n, mul)
	bump := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(path, bump, bump); err != nil {
		t.Fatal(err)
	}
}

func faultCatalog(t *testing.T, formatName, path string) *schema.Catalog {
	t.Helper()
	var f schema.Format
	switch formatName {
	case "csv":
		f = schema.CSV
	case "jsonl":
		f = schema.JSONL
	case "fits":
		f = schema.FITS
	}
	tbl, err := schema.New("t", []schema.Column{
		{Name: "id", Type: datum.Int},
		{Name: "v", Type: datum.Int},
	}, path, f)
	if err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func faultPath(t *testing.T, formatName string) string {
	return filepath.Join(t.TempDir(), "t."+formatName)
}

// verifyFaultRows asserts the result is exactly one file version: n rows
// with id = i, v = faultValue(i, mul) in order.
func verifyFaultRows(t *testing.T, res *Result, n int, mul int64) {
	t.Helper()
	if len(res.Rows) != n {
		t.Fatalf("got %d rows, want %d", len(res.Rows), n)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) || r[1].Int() != faultValue(i, mul) {
			t.Fatalf("row %d = (%v, %v), want (%d, %d)", i, r[0], r[1], i, faultValue(i, mul))
		}
	}
}

// assertTypedFaultErr asserts err carries the typed taxonomy (or the
// injected sentinel) — the "or typed error" half of the contract.
func assertTypedFaultErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, format.ErrFileChanged) && !errors.Is(err, format.ErrFileVanished) &&
		!errors.Is(err, format.ErrCorruptAux) && !errors.Is(err, format.ErrRetriesExhausted) &&
		!errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("error is not typed: %v", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("real fault masked by a context error: %v", err)
	}
}

const faultQuery = "SELECT id, v FROM t ORDER BY id"

// TestFaultMatrixColdEIO: every read of an untouched table fails. The
// query must surface the injected error (typed), and once the fault heals
// the same engine must recover without a restart.
func TestFaultMatrixColdEIO(t *testing.T) {
	for _, f := range faultFormats {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 500, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path))
			defer e.Close()

			remove := iofault.Inject(path, iofault.Profile{ReadErr: iofault.ErrInjected})
			_, err := e.Query(faultQuery)
			assertTypedFaultErr(t, err)
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			if f != "fits" && !errors.Is(err, format.ErrRetriesExhausted) {
				// CSV/JSONL burn the retry budget inside the guarded scan;
				// FITS fails while parsing its header, before any scan.
				t.Fatalf("retry exhaustion not typed: %v", err)
			}
			remove()

			res := mustQuery(t, e, faultQuery)
			verifyFaultRows(t, res, 500, 2)
		})
	}
}

// TestFaultMatrixEIOHealsWithinRetryBudget: a warm table faults mid-scan
// on its next recording pass; one retry must invalidate the adaptive
// state, rebuild cold and produce correct rows — the paper's structures
// are disposable, so recovery is always "throw away and re-derive".
func TestFaultMatrixEIOHealsWithinRetryBudget(t *testing.T) {
	for _, f := range faultFormats {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 500, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path))
			defer e.Close()

			// Warm the table on one column, so the next query needs a
			// recording pass over the raw file.
			mustQuery(t, e, "SELECT id FROM t ORDER BY id")

			defer iofault.Inject(path, iofault.Profile{
				ReadErr:   iofault.ErrInjected,
				MaxFaults: 1,
			})()
			res := mustQuery(t, e, faultQuery)
			verifyFaultRows(t, res, 500, 2)
			if iofault.Faults(path) == 0 {
				t.Fatal("the injected fault never fired; the retry path was not exercised")
			}
			if rows := e.Metrics("t").Rows; rows != 500 {
				t.Fatalf("rebuilt state reports %d rows, want 500", rows)
			}
		})
	}
}

// TestFaultMatrixVanish: the raw file disappears before (cold) or after
// (warm) the adaptive state exists. Both must fail with ErrFileVanished.
func TestFaultMatrixVanish(t *testing.T) {
	for _, f := range faultFormats {
		for _, phase := range []string{"cold", "warm"} {
			t.Run(f+"/"+phase, func(t *testing.T) {
				defer testutil.CheckLeaks(t)()
				path := faultPath(t, f)
				writeFaultTable(t, f, path, 200, 2)
				e := openFaultEngine(t, faultCatalog(t, f, path))
				defer e.Close()

				if phase == "warm" {
					verifyFaultRows(t, mustQuery(t, e, faultQuery), 200, 2)
				}
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				_, err := e.Query(faultQuery)
				assertTypedFaultErr(t, err)
				if !errors.Is(err, format.ErrFileVanished) {
					t.Fatalf("want ErrFileVanished, got: %v", err)
				}
			})
		}
	}
}

// TestFaultMatrixTruncateWarm: the file shrinks to fewer (whole) rows
// behind a warm table. The integrity guard must invalidate everything and
// the next query must return exactly the new file's rows.
func TestFaultMatrixTruncateWarm(t *testing.T) {
	for _, f := range faultFormats {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 500, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path))
			defer e.Close()

			verifyFaultRows(t, mustQuery(t, e, faultQuery), 500, 2)
			rewriteFaultTable(t, f, path, 300, 2)
			verifyFaultRows(t, mustQuery(t, e, faultQuery), 300, 2)
			if rows := e.Metrics("t").Rows; rows != 300 {
				t.Fatalf("state reports %d rows after truncation, want 300", rows)
			}
		})
	}
}

// TestFaultMatrixTornFITS: a FITS file truncated mid-payload keeps a
// header declaring rows the data no longer holds. That can never be
// served consistently, so the query must fail typed (ErrFileChanged),
// with retries exhausted rather than wrong rows returned.
func TestFaultMatrixTornFITS(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	path := faultPath(t, "fits")
	writeFaultTable(t, "fits", path, 500, 2)
	e := openFaultEngine(t, faultCatalog(t, "fits", path))
	defer e.Close()

	verifyFaultRows(t, mustQuery(t, e, faultQuery), 500, 2)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2880); err != nil {
		t.Fatal(err)
	}
	_, qerr := e.Query(faultQuery)
	assertTypedFaultErr(t, qerr)
	if !errors.Is(qerr, format.ErrFileChanged) {
		t.Fatalf("want ErrFileChanged, got: %v", qerr)
	}
	if !errors.Is(qerr, format.ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got: %v", qerr)
	}
}

// TestFaultMatrixMutateWarm: a same-size in-place edit behind a warm
// table. Size alone cannot detect it — the content fingerprint must, and
// the next query must serve the new values, not the cached old ones.
func TestFaultMatrixMutateWarm(t *testing.T) {
	for _, f := range faultFormats {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 400, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path))
			defer e.Close()

			verifyFaultRows(t, mustQuery(t, e, faultQuery), 400, 2)
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			rewriteFaultTable(t, f, path, 400, 3)
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if before.Size() != after.Size() {
				t.Fatalf("mutation changed the size (%d -> %d); this cell needs a same-size edit",
					before.Size(), after.Size())
			}
			verifyFaultRows(t, mustQuery(t, e, faultQuery), 400, 3)
		})
	}
}

// TestFaultMatrixParallelEIO: a parallel-configured engine with every
// read failing and retries disabled must surface the injected error
// typed — and recover on the same engine once the fault is removed.
func TestFaultMatrixParallelEIO(t *testing.T) {
	for _, f := range faultFormats {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 20000, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path), func(o *Options) {
				o.Parallelism = 4
				o.ScanRetries = -1
			})
			defer e.Close()

			remove := iofault.Inject(path, iofault.Profile{ReadErr: iofault.ErrInjected})
			_, err := e.Query(faultQuery)
			assertTypedFaultErr(t, err)
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", err)
			}
			remove()
			verifyFaultRows(t, mustQuery(t, e, faultQuery), 20000, 2)
		})
	}
}

// TestFaultPoolErrorAggregation is the regression test for the parallel
// worker pool dropping real errors: a worker that faults mid-file must
// surface its error deterministically — never swallowed by a racing
// teardown, never masked by the pool's own context cancellation. It
// drives the partitioned scan directly, below the retry layer.
func TestFaultPoolErrorAggregation(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	path := faultPath(t, "csv")
	writeFaultTable(t, "csv", path, 20000, 2)
	cat := faultCatalog(t, "csv", path)
	tbl, ok := cat.Lookup("t")
	if !ok {
		t.Fatal("table not registered")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fault arms on reads touching the final bytes: the split probes
	// (4KB at each candidate boundary) stay clear of it, so partitioning
	// succeeds and only the worker that owns the tail partition faults —
	// deterministically, on its first read.
	defer iofault.Inject(path, iofault.Profile{
		ReadErr:   iofault.ErrInjected,
		ReadErrAt: fi.Size() - 64,
	})()

	for iter := 0; iter < 5; iter++ {
		rt := newRawTable(tbl, Options{Parallelism: 4}.env())
		op := format.NewPartitionedLineScan(context.Background(), rt.State, []int{0, 1}, nil, 4, newCSVDecoder)
		if err := op.Open(); err != nil {
			t.Fatalf("iter %d: open: %v", iter, err)
		}
		var scanErr error
		for {
			_, err := op.NextBatch()
			if err != nil {
				if err != io.EOF {
					scanErr = err
				}
				break
			}
		}
		if cerr := op.Close(); scanErr == nil {
			scanErr = cerr
		}
		if scanErr == nil {
			t.Fatalf("iter %d: worker fault was dropped; scan reported success", iter)
		}
		if !errors.Is(scanErr, iofault.ErrInjected) {
			t.Fatalf("iter %d: want the injected read error, got: %v", iter, scanErr)
		}
		if errors.Is(scanErr, context.Canceled) {
			t.Fatalf("iter %d: real error masked by context.Canceled: %v", iter, scanErr)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
	}
}

// TestFaultMatrixAppendRollback: a failed INSERT write must roll the raw
// file back to its pre-append size and leave the table fully queryable;
// a later INSERT must succeed and be visible. (FITS has no append path.)
func TestFaultMatrixAppendRollback(t *testing.T) {
	for _, f := range []string{"csv", "jsonl"} {
		t.Run(f, func(t *testing.T) {
			defer testutil.CheckLeaks(t)()
			path := faultPath(t, f)
			writeFaultTable(t, f, path, 100, 2)
			e := openFaultEngine(t, faultCatalog(t, f, path))
			defer e.Close()

			verifyFaultRows(t, mustQuery(t, e, faultQuery), 100, 2)
			pre, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			remove := iofault.Inject(path, iofault.Profile{WriteErr: iofault.ErrInjected})
			_, _, ierr := e.Exec("INSERT INTO t VALUES (100, 200100)")
			if ierr == nil {
				t.Fatal("INSERT through a failing write must error")
			}
			if !errors.Is(ierr, iofault.ErrInjected) {
				t.Fatalf("injected cause lost from the chain: %v", ierr)
			}
			remove()

			post, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if post.Size() != pre.Size() {
				t.Fatalf("failed append left the file at %d bytes, want rollback to %d",
					post.Size(), pre.Size())
			}
			verifyFaultRows(t, mustQuery(t, e, faultQuery), 100, 2)

			if _, n, err := e.Exec("INSERT INTO t VALUES (100, 200100)"); err != nil || n != 1 {
				t.Fatalf("healed INSERT: n=%d err=%v", n, err)
			}
			verifyFaultRows(t, mustQuery(t, e, faultQuery), 101, 2)
		})
	}
}

// openFaultEngine opens an engine without t.Cleanup, so tests can order
// Close before their leak check (defer LIFO).
func openFaultEngine(t *testing.T, cat *schema.Catalog, tweak ...func(*Options)) *Engine {
	t.Helper()
	opts := Options{Mode: ModePMCache}
	for _, f := range tweak {
		f(&opts)
	}
	e, err := Open(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
