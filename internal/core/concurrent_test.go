package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/schema"
	"nodb/internal/testutil"
)

// TestConcurrentColdSingleFlight drives N sessions at the same cold table:
// every session must see the identical result, and the file must be parsed
// exactly once (the other sessions wait on the table lock and then serve
// themselves from the cache the first scan built).
func TestConcurrentColdSingleFlight(t *testing.T) {
	for _, workers := range []int{1, 0} { // sequential and parallel cold scan
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			const n = 800
			cat := buildFixture(t, t.TempDir(), n)
			e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers})

			const sessions = 8
			query := "SELECT sum(a), count(*) FROM wide"
			want := mustQuery(t, e, query) // warm reference on a second engine? No: this warms the table.

			// Rebuild a fresh engine so the storm really hits a cold table.
			e2 := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers})
			var wg sync.WaitGroup
			results := make([]*Result, sessions)
			errs := make([]error, sessions)
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = e2.QueryContext(context.Background(), query, nil, nil)
				}(i)
			}
			wg.Wait()
			for i := 0; i < sessions; i++ {
				if errs[i] != nil {
					t.Fatalf("session %d: %v", i, errs[i])
				}
				if !rowsEqual(results[i].Rows, want.Rows) {
					t.Errorf("session %d: rows = %v, want %v", i, results[i].Rows, want.Rows)
				}
			}
			m := e2.Metrics("wide")
			if m.TuplesParsed != n {
				t.Errorf("TuplesParsed = %d, want %d (single-flight cold scan)", m.TuplesParsed, n)
			}
		})
	}
}

// TestConcurrentMixedQueries hammers one engine with a mix of query shapes
// and checks every result against a sequential reference.
func TestConcurrentMixedQueries(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 600)
	ref := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})
	queries := []string{
		"SELECT id, a, b FROM wide WHERE a = 3 ORDER BY id",
		"SELECT count(*), sum(b), avg(c) FROM wide",
		"SELECT a, count(*) FROM wide GROUP BY a ORDER BY a",
		"SELECT id FROM wide WHERE b IS NULL ORDER BY id LIMIT 5",
		"SELECT id, c FROM wide WHERE c BETWEEN 10 AND 20 ORDER BY id",
		"SELECT w1.id FROM wide w1, wide w2 WHERE w1.id = w2.id AND w1.a = 2 ORDER BY w1.id LIMIT 7",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustQuery(t, ref, q)
	}

	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for qi, q := range queries {
			wg.Add(1)
			go func(qi int, q string) {
				defer wg.Done()
				res, err := e.QueryContext(context.Background(), q, nil, nil)
				if err != nil {
					errCh <- fmt.Errorf("%q: %v", q, err)
					return
				}
				if !rowsEqual(res.Rows, want[qi].Rows) {
					errCh <- fmt.Errorf("%q: rows differ from sequential reference", q)
				}
			}(qi, q)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentInsertAndSelect interleaves INSERTs with SELECTs; the
// table lock serializes appends against scans, so every query sees a
// consistent prefix and nothing races.
func TestConcurrentInsertAndSelect(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 200)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	var wg sync.WaitGroup
	errCh := make(chan error, 40)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				sql := fmt.Sprintf("INSERT INTO wide VALUES (%d, 1, 2, 3.5, 'ins', date '2001-01-01')", 100000+i*10+j)
				if _, _, err := e.ExecContext(context.Background(), sql, nil, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				res, err := e.QueryContext(context.Background(), "SELECT count(*) FROM wide", nil, nil)
				if err != nil {
					errCh <- err
					return
				}
				if n := res.Rows[0][0].Int(); n < 200 {
					errCh <- fmt.Errorf("count = %d, want >= 200", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	res := mustQuery(t, e, "SELECT count(*) FROM wide")
	if n := res.Rows[0][0].Int(); n != 220 {
		t.Errorf("final count = %d, want 220", n)
	}
}

// TestConcurrentLoadFirstQueries: the load-first mode shares one buffer
// pool across sessions; concurrent page-at-a-time scans must be safe and
// correct (the pool serializes frame bookkeeping internally).
func TestConcurrentLoadFirstQueries(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 1500)
	e := openEngine(t, cat, Options{Mode: ModeLoadFirst, PoolFrames: 8})
	want := mustQuery(t, e, "SELECT a, count(*) FROM wide GROUP BY a ORDER BY a")
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.QueryContext(context.Background(), "SELECT a, count(*) FROM wide GROUP BY a ORDER BY a", nil, nil)
			if err != nil {
				errCh <- err
				return
			}
			if !rowsEqual(res.Rows, want.Rows) {
				errCh <- fmt.Errorf("load-first concurrent result differs")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestLoadFirstInvalidateWaitsForScan: Invalidate of a loaded table waits
// for a scan in flight — the scan holds the table lock shared and keeps
// reading the heap it started on, delivering every row — and only then
// removes the heap; the next query loads a new one.
func TestLoadFirstInvalidateWaitsForScan(t *testing.T) {
	const n = 400
	cat := buildFixture(t, t.TempDir(), n)
	dataDir := t.TempDir()
	e := openEngine(t, cat, Options{Mode: ModeLoadFirst, DataDir: dataDir, BatchSize: 16, PoolFrames: 8})
	const query = "SELECT id, a, c FROM wide WHERE a < 40"
	want := mustQuery(t, openEngine(t, cat, Options{Mode: ModePMCache}), query)
	heap := filepath.Join(dataDir, "wide.heap")

	op, _, err := e.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	first, err := op.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	got := appendLive(nil, first)
	old := e.sources["wide"].(*heapTable).rel.Load()

	invalidated := make(chan struct{})
	go func() {
		e.Invalidate("wide")
		close(invalidated)
	}()
	select {
	case <-invalidated:
		t.Error("Invalidate returned while a scan of the table was open")
	case <-time.After(50 * time.Millisecond):
	}
	for {
		b, err := op.NextBatch()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		got = appendLive(got, b)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	<-invalidated
	if !rowsEqual(got, want.Rows) {
		t.Errorf("scan across Invalidate delivered %d rows, want %d equal to a fresh query", len(got), len(want.Rows))
	}
	if _, err := os.Stat(heap); !os.IsNotExist(err) {
		t.Errorf("heap file after Invalidate: %v, want it removed", err)
	}

	res := mustQuery(t, e, query)
	if !rowsEqual(res.Rows, want.Rows) {
		t.Errorf("query after Invalidate = %d rows, want %d", len(res.Rows), len(want.Rows))
	}
	if _, err := os.Stat(heap); err != nil {
		t.Errorf("next query did not reload the heap: %v", err)
	}
	if rel := e.sources["wide"].(*heapTable).rel.Load(); rel == nil || rel == old {
		t.Errorf("next query scanned relation %p, want a new one (old %p)", rel, old)
	}
}

// appendLive copies a batch's live rows out (a scan reuses its batches).
func appendLive(rows []exec.Row, b *exec.Batch) []exec.Row {
	for k := range b.Live() {
		rows = append(rows, b.Row(k, make(exec.Row, len(b.Cols))))
	}
	return rows
}

// TestPreparedStatementParams runs one prepared statement with several
// bindings and checks each against the literal spelling. The second
// prepare of the same text must hit the statement cache.
func TestPreparedStatementParams(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 500)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true})

	p, err := e.PrepareStmt("SELECT id, b FROM wide WHERE a = ? AND id < ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 2 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	p2, err := e.PrepareStmt("select ID, B from WIDE where A = ? and ID < ?  order by ID")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Error("equivalent statement did not hit the cache")
	}

	for _, bind := range [][2]int64{{3, 400}, {0, 100}, {6, 77}} {
		op, _, err := p.Plan(context.Background(), []datum.Datum{datum.NewInt(bind[0]), datum.NewInt(bind[1])}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		want := mustQuery(t, e, fmt.Sprintf("SELECT id, b FROM wide WHERE a = %d AND id < %d ORDER BY id", bind[0], bind[1]))
		if !rowsEqual(got, want.Rows) {
			t.Errorf("binding %v: rows differ from literal query", bind)
		}
	}

	// Arity errors are reported up front.
	if _, _, err := p.Plan(context.Background(), []datum.Datum{datum.NewInt(1)}, nil); err == nil {
		t.Error("expected arity error for missing binding")
	}

	// Named parameters.
	pn, err := e.PrepareStmt("SELECT count(*) FROM wide WHERE a = :aval")
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := pn.Plan(context.Background(), nil, map[string]datum.Datum{"aval": datum.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, e, "SELECT count(*) FROM wide WHERE a = 2")
	if !rowsEqual(got, want.Rows) {
		t.Error("named binding differs from literal query")
	}
}

// TestCancelBeforeExecution: an already cancelled context aborts before
// any scan work happens.
func TestCancelBeforeExecution(t *testing.T) {
	for table, cat := range map[string]*schema.Catalog{
		"wide":      buildFixture(t, t.TempDir(), 300),
		"obs_jsonl": formatFixture(t, t.TempDir(), 300),
	} {
		e := openEngine(t, cat, Options{Mode: ModePMCache})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := e.QueryContext(ctx, "SELECT count(*) FROM "+table, nil, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", table, err)
		}
		if m := e.Metrics(table); m.TuplesParsed != 0 {
			t.Errorf("%s: TuplesParsed = %d after pre-cancelled query", table, m.TuplesParsed)
		}
	}
}

// TestCancelMidScan streams a few rows of a cold scan, cancels, and
// expects the cursor to abort with the context error — promptly, without
// leaking goroutines or file descriptors.
func TestCancelMidScan(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			cat := buildFixture(t, t.TempDir(), 20000)
			e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: workers})

			checkLeaks := testutil.CheckLeaks(t)

			ctx, cancel := context.WithCancel(context.Background())
			p, err := e.PrepareStmt("SELECT id FROM wide")
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
			for i := 0; i < 100000; i++ {
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

			// The table must be usable again afterwards.
			res, err := e.QueryContext(context.Background(), "SELECT count(*) FROM wide", nil, nil)
			if err != nil {
				t.Fatalf("post-cancel query: %v", err)
			}
			if res.Rows[0][0].Int() != 20000 {
				t.Errorf("post-cancel count = %v", res.Rows[0][0])
			}

			checkLeaks()
		})
	}
}

// TestWarmCacheScansRunConcurrently: once a table is fully cached,
// readers share it — a session holding a warm scan open must not block
// other warm queries (they acquire the table shared and overlap).
func TestWarmCacheScansRunConcurrently(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 2000)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 1})
	warm := mustQuery(t, e, "SELECT id, a FROM wide") // caches id, a for all rows

	// Hold a warm scan open mid-stream.
	p, err := e.PrepareStmt("SELECT id, a FROM wide")
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
	if _, err := op.NextBatch(); err != nil {
		t.Fatal(err)
	}

	// Another warm session must complete while the first is still open.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := e.QueryContext(ctx, "SELECT id, a FROM wide", nil, nil)
	if err != nil {
		t.Fatalf("concurrent warm query: %v (warm readers must not serialize)", err)
	}
	if !rowsEqual(res.Rows, warm.Rows) {
		t.Error("concurrent warm query returned different rows")
	}
	// The file must not have been re-parsed.
	if m := e.Metrics("wide"); m.TuplesParsed != 2000 {
		t.Errorf("TuplesParsed = %d, want 2000 (warm queries must serve from cache)", m.TuplesParsed)
	}
}

// TestCancelWhileWaitingOnTableLock: a session queued behind a long
// exclusive scan gives up as soon as its context is cancelled.
func TestCancelWhileWaitingOnTableLock(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 5000)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 1})

	// Hold the table: open a cold scan and keep it mid-flight.
	p, err := e.PrepareStmt("SELECT id FROM wide")
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
	if _, err := op.NextBatch(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, "SELECT count(*) FROM wide", nil, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the lock queue
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}

// TestLimitPushdownStopsColdScan: a bare LIMIT over a cold table parses
// only as many tuples as the limit needs, instead of one full batch.
func TestLimitPushdownStopsColdScan(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 5000)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 1})
	res := mustQuery(t, e, "SELECT id FROM wide LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	m := e.Metrics("wide")
	if m.TuplesParsed > 16 {
		t.Errorf("TuplesParsed = %d for LIMIT 5; budget pushdown should stop the scan", m.TuplesParsed)
	}
}

// TestLimitPushdownStopsParallelScan: the partitioned cold scan also stops
// early on a bare LIMIT (workers are torn down, results stay correct).
func TestLimitPushdownStopsParallelScan(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 20000)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 4})
	res := mustQuery(t, e, "SELECT id FROM wide LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) {
			t.Errorf("row %d = %v (file order must be preserved)", i, r)
		}
	}
	m := e.Metrics("wide")
	if m.TuplesParsed >= 20000 {
		t.Errorf("TuplesParsed = %d for LIMIT 3; the partitioned scan should stop early", m.TuplesParsed)
	}
}

// TestStatementCacheEviction exercises the LRU bound.
func TestStatementCacheEviction(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 50)
	e, err := Open(cat, Options{Mode: ModePMCache, PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p1, err := e.PrepareStmt("SELECT id FROM wide WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PrepareStmt("SELECT id FROM wide WHERE a = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PrepareStmt("SELECT id FROM wide WHERE a = 3"); err != nil {
		t.Fatal(err)
	}
	// p1 was evicted by the third entry; re-preparing parses anew.
	p1b, err := e.PrepareStmt("SELECT id FROM wide WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if p1b == p1 {
		t.Error("expected eviction of the oldest cache entry")
	}
	// All prepared statements still execute.
	if _, _, err := p1b.Plan(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizedCacheKeyRespectsLiterals: different literals must not
// collide in the cache.
func TestNormalizedCacheKeyRespectsLiterals(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 100)
	e := openEngine(t, cat, Options{Mode: ModePMCache})
	r1 := mustQuery(t, e, "SELECT count(*) FROM wide WHERE a = 1")
	r2 := mustQuery(t, e, "SELECT count(*) FROM wide WHERE a = 2")
	lit1 := strings.TrimSpace(r1.Rows[0][0].String())
	lit2 := strings.TrimSpace(r2.Rows[0][0].String())
	if lit1 == lit2 {
		t.Skip("fixture degenerately uniform") // defensive; not expected
	}
}

// joinFixture registers two small tables ta and tb (k int, v int) whose
// keys overlap, so ta ⋈ tb, tb ⋈ ta and the self-join ta ⋈ ta all return
// rows.
func joinFixture(t testing.TB, dir string, n int) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for ti, name := range []string{"ta", "tb"} {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%d,%d\n", (i*(ti+2))%97, i)
		}
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := schema.New(name, []schema.Column{
			{Name: "k", Type: datum.Int}, {Name: "v", Type: datum.Int},
		}, path, schema.CSV)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestConcurrentJoinLockOrder pins the hash join's table-lock rule: the
// build child is drained and closed before the probe child opens, so a
// join holds at most one table at a time. Sessions joining ta ⋈ tb with ta
// as the build side, tb ⋈ ta with tb as the build side and the self-join
// ta ⋈ ta therefore cannot deadlock each other (ABBA) or themselves —
// against cold tables, where every first scan is an exclusive recording
// pass, and again warm. Without statistics the planner builds on the first
// FROM table, which is what fixes the build sides here.
func TestConcurrentJoinLockOrder(t *testing.T) {
	const n = 600
	cat := joinFixture(t, t.TempDir(), n)
	queries := []string{
		"SELECT count(*), sum(ta.v), sum(tb.v) FROM ta, tb WHERE ta.k = tb.k",
		"SELECT count(*), sum(ta.v), sum(tb.v) FROM tb, ta WHERE tb.k = ta.k",
		"SELECT count(*), sum(a1.v), sum(a2.v) FROM ta a1, ta a2 WHERE a1.k = a2.k",
	}
	ref := openEngine(t, cat, Options{Mode: ModePMCache})
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustQuery(t, ref, q)
		if want[i].Rows[0][0].Int() == 0 {
			t.Fatalf("%q joins nothing; the fixture no longer exercises it", q)
		}
	}

	e := openEngine(t, cat, Options{Mode: ModePMCache})
	for _, phase := range []string{"cold", "warm"} {
		// Table-lock waits observe the context, so a lock-order deadlock
		// surfaces as deadline errors below instead of hanging the run.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		const perShape = 4
		errCh := make(chan error, perShape*len(queries))
		var wg sync.WaitGroup
		for r := 0; r < perShape; r++ {
			for qi, q := range queries {
				wg.Add(1)
				go func(qi int, q string) {
					defer wg.Done()
					res, err := e.QueryContext(ctx, q, nil, nil)
					switch {
					case err != nil:
						errCh <- fmt.Errorf("%s %q: %v", phase, q, err)
					case !rowsEqual(res.Rows, want[qi].Rows):
						errCh <- fmt.Errorf("%s %q: rows %v, serial run %v", phase, q, res.Rows, want[qi].Rows)
					}
				}(qi, q)
			}
		}
		wg.Wait()
		cancel()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
	}
}

// TestConcurrentJoinCancelOnProbeLock: a join whose probe table is held by
// another session waits holding nothing — its build table stays writable —
// and gives up as soon as its context is cancelled.
func TestConcurrentJoinCancelOnProbeLock(t *testing.T) {
	const n = 600
	cat := joinFixture(t, t.TempDir(), n)
	e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: 1})

	// Hold tb exclusively: open a cold scan and keep it mid-flight.
	p, err := e.PrepareStmt("SELECT v FROM tb")
	if err != nil {
		t.Fatal(err)
	}
	holder, _, err := p.Plan(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Open(); err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.NextBatch(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, "SELECT count(*) FROM ta, tb WHERE ta.k = tb.k", nil, nil)
		done <- err
	}()

	// The build scan over ta publishes its row count when it completes; from
	// then on the join is closing ta and queueing for tb. (TableStatsLite
	// reads it without taking the table lock a broken join would hold.)
	deadline := time.Now().Add(10 * time.Second)
	for e.TableStatsLite()["ta"].Rows != n {
		if time.Now().After(deadline) {
			t.Fatal("the join's build scan over ta never completed")
		}
		time.Sleep(time.Millisecond)
	}
	// An INSERT needs ta exclusively: it only succeeds if the blocked join
	// kept no hold (shared or exclusive) on its build table.
	ictx, icancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer icancel()
	if _, _, err := e.ExecContext(ictx, "INSERT INTO ta VALUES (1, 1)", nil, nil); err != nil {
		t.Fatalf("INSERT into the build table while the join waits on its probe table: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("join returned (%v) while its probe table was held exclusively", err)
	default:
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled join did not return from the table-lock queue")
	}
}
