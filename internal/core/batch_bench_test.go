package core

import (
	"context"
	"flag"
	"testing"
	"time"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
	"nodb/internal/tpch"
)

// timingGate enables the wall-clock bounds of the speed-up and profiling
// overhead tests. A timing ratio only means something on an otherwise idle
// machine, so the bounds run when asked for — the non-race CI gate steps
// pass -timing-gate — and never under a plain `go test ./...`, whose
// packages share the cores. Without the flag those tests still check,
// deterministically, that the fast path is the one that runs.
var timingGate = flag.Bool("timing-gate", false, "also enforce the wall-clock speed-up and overhead bounds (run alone on an idle machine)")

// benchWarmEngine opens an engine over a fixture table and runs one
// warming query so that every column the benchmark touches is fully
// cached — the scans under measurement then take the cacheScan path (the
// paper's third-epoch optimal regime, Fig 6).
func benchWarmEngine(tb testing.TB, rows int, disableVectorized bool) *Engine {
	tb.Helper()
	cat := buildFixture(tb, tb.TempDir(), rows)
	e, err := Open(cat, Options{
		Mode:              ModePMCache,
		Parallelism:       1,
		DisableVectorized: disableVectorized,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	if _, err := e.Query("SELECT id, a, b, c, name, d FROM wide"); err != nil {
		tb.Fatal(err)
	}
	return e
}

// drainQuery streams a prepared query to completion without materializing
// results, returning the row count.
func drainQuery(tb testing.TB, e *Engine, sql string) int64 {
	tb.Helper()
	op, _, err := e.Prepare(sql)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := exec.Count(op)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// benchQueries are the warm-scan shapes the row/batch comparison sweeps:
// a selective filter+project, a near-pass-through filter, and a grouped
// aggregation (vectorized hash-agg input).
var benchQueries = []struct{ name, sql string }{
	{"FilterProject", "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"},
	{"WideFilter", "SELECT id, c FROM wide WHERE id >= 0"},
	{"Agg", "SELECT a, count(*), sum(c) FROM wide GROUP BY a"},
}

// BenchmarkWarmScanRow measures the DisableVectorized engine — one-row
// batches through the row interpreter — over a fully cached table.
// Compare against BenchmarkWarmScanBatch:
//
//	go test -bench 'BenchmarkWarmScan(Row|Batch)' ./internal/core/
func BenchmarkWarmScanRow(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			benchWarmScan(b, q.sql, true)
		})
	}
}

// BenchmarkWarmScanBatch measures the vectorized pipeline on the identical
// workload; the acceptance bar for this engine is >= 1.5x the rows/sec of
// BenchmarkWarmScanRow on FilterProject.
func BenchmarkWarmScanBatch(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			benchWarmScan(b, q.sql, false)
		})
	}
}

func benchWarmScan(b *testing.B, sql string, disableVectorized bool) {
	const rows = 20_000
	e := benchWarmEngine(b, rows, disableVectorized)
	drainQuery(b, e, sql) // one untimed run: plans warm, caches verified
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainQuery(b, e, sql)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkColdScanBatchVsRow measures the first-query (raw-file) path,
// where batching amortizes the operator interface above the unchanged
// selective tokenize/parse pipeline; Row is the DisableVectorized engine.
func BenchmarkColdScanBatchVsRow(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"Batch", false}, {"Row", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const rows = 10_000
			cat := buildFixture(b, b.TempDir(), rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := Open(cat, Options{Mode: ModePMCache, Parallelism: 1, DisableVectorized: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				op, _, err := e.Prepare("SELECT id, b + 1 FROM wide WHERE a < 4")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := exec.Count(op); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
		})
	}
}

// profileQuery runs sql once on e under a fresh qtrace profile and returns
// the finished snapshot: the operator tree with per-span row and batch
// counts, and the kernel/generic batch counters.
func profileQuery(tb testing.TB, e *Engine, sql string) qtrace.Snapshot {
	tb.Helper()
	p, err := e.PrepareStmt(sql)
	if err != nil {
		tb.Fatal(err)
	}
	prof := qtrace.New(sql)
	drainPlanned(tb, p, qtrace.NewContext(context.Background(), prof))
	prof.Finish()
	snap := prof.Snapshot()
	if snap.Plan == nil {
		tb.Fatalf("%q: profile has no operator tree", sql)
	}
	return snap
}

// spans flattens a profiled operator tree, root first.
func spans(sp qtrace.SpanInfo) []qtrace.SpanInfo {
	out := []qtrace.SpanInfo{sp}
	for _, c := range sp.Children {
		out = append(out, spans(c)...)
	}
	return out
}

// scanSpans returns the scan leaves of a profiled operator tree.
func scanSpans(sp qtrace.SpanInfo) []qtrace.SpanInfo {
	var out []qtrace.SpanInfo
	for _, s := range spans(sp) {
		if len(s.Children) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// TestBatchSpeedupOnWarmScan gates the vectorized pipeline on a warm
// cached Filter+Project scan. Deterministically, every operator from the
// scan to the projection must move the table batch-at-a-time — one batch
// per DefaultBatchSize input rows — while the DisableVectorized engine
// moves one row per batch; both return the same rows. With -timing-gate
// the vectorized pipeline must also clear 1.5x the throughput of one-row
// batches through the row interpreter, measured with testing.Benchmark.
func TestBatchSpeedupOnWarmScan(t *testing.T) {
	const rows = 20_000
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	wantBatches := int64((rows + exec.DefaultBatchSize - 1) / exec.DefaultBatchSize)
	shape := func(disable bool) qtrace.Snapshot {
		e := benchWarmEngine(t, rows, disable)
		drainQuery(t, e, sql)
		return profileQuery(t, e, sql)
	}
	vec, row := shape(false), shape(true)
	if vec.Plan.Rows != row.Plan.Rows {
		t.Fatalf("vectorized and row engines returned %d and %d rows", vec.Plan.Rows, row.Plan.Rows)
	}
	for _, sp := range spans(*vec.Plan) {
		if sp.Batches != wantBatches {
			t.Errorf("vectorized %s: %d batches for %d rows, want %d", sp.Label, sp.Batches, rows, wantBatches)
		}
	}
	for _, sp := range spans(*row.Plan) {
		if sp.Batches != sp.Rows {
			t.Errorf("DisableVectorized %s: %d batches for %d rows, want one-row batches", sp.Label, sp.Batches, sp.Rows)
		}
	}
	if !*timingGate {
		return
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the row/batch timing ratio")
	}
	measure := func(disable bool) float64 {
		e := benchWarmEngine(t, rows, disable)
		drainQuery(t, e, sql)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, sql)
			}
		})
		return float64(r.N) / r.T.Seconds()
	}
	// The two pipelines measure in separate windows, so a contended host
	// can depress one ratio transiently; retry before declaring failure.
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		rowQPS := measure(true)
		batchQPS := measure(false)
		speedup = batchQPS / rowQPS
		t.Logf("warm Filter+Project attempt %d: row %.1f q/s, batch %.1f q/s, speedup %.2fx",
			attempt, rowQPS, batchQPS, speedup)
		if speedup >= 1.5 {
			return
		}
	}
	t.Errorf("vectorized warm scan speedup %.2fx < 1.5x target after 3 attempts", speedup)
}

// TestJoinSpeedupOnWarmTPCH is the join gate. With every column cached,
// the default engine reads every scan under TPC-H Q3's and Q12's hash joins
// batch-at-a-time and narrows them with compiled kernels; the
// DisableVectorized engine runs the same joins over scans that move one
// row per batch, with no kernel batch. Both return the same rows. With
// -timing-gate the default engine must also answer both queries at least
// 1.3x faster, each side its best of five interleaved runs. (Q12's CASE
// aggregate arguments run the row interpreter on the default engine too, so
// the gate does not require zero generic batches.)
func TestJoinSpeedupOnWarmTPCH(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.005, 3); err != nil {
		t.Fatal(err)
	}
	open := func(disableVectorized bool) *Engine {
		cat, err := tpch.Catalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true, DisableVectorized: disableVectorized})
		for _, table := range []string{"customer", "orders", "lineitem"} {
			if err := e.Prewarm(table); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	vec, row := open(false), open(true)
	for _, name := range []string{"Q3", "Q12"} {
		sql := tpch.Queries[name]
		drainQuery(t, vec, sql) // plans, kernels and statistics settle
		drainQuery(t, row, sql)
		if parsed := vec.Metrics("lineitem").TuplesParsed; parsed != row.Metrics("lineitem").TuplesParsed {
			t.Fatalf("%s: engines did not warm alike", name)
		}
		vs, rs := profileQuery(t, vec, sql), profileQuery(t, row, sql)
		if vs.Plan.Rows != rs.Plan.Rows {
			t.Fatalf("%s: default and row engines returned %d and %d rows", name, vs.Plan.Rows, rs.Plan.Rows)
		}
		if vs.Ctrs.KernelBatches == 0 {
			t.Errorf("%s: default engine ran no compiled kernel batch", name)
		}
		if rs.Ctrs.KernelBatches != 0 {
			t.Errorf("%s: DisableVectorized engine ran %d compiled kernel batches", name, rs.Ctrs.KernelBatches)
		}
		for _, c := range []struct {
			snap qtrace.Snapshot
			vec  bool
		}{{vs, true}, {rs, false}} {
			scans := scanSpans(*c.snap.Plan)
			if len(scans) < 2 {
				t.Fatalf("%s: plan has %d scans, want a join", name, len(scans))
			}
			for _, sp := range scans {
				if c.vec && sp.Batches == 0 || !c.vec && sp.Batches != sp.Rows {
					t.Errorf("%s (vectorized=%v) %s: %d batches for %d rows", name, c.vec, sp.Label, sp.Batches, sp.Rows)
				}
			}
		}
	}
	if !*timingGate {
		return
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the row/batch timing ratio")
	}
	for _, name := range []string{"Q3", "Q12"} {
		sql := tpch.Queries[name]
		best := func(e *Engine, cur time.Duration) time.Duration {
			start := time.Now()
			drainQuery(t, e, sql)
			if d := time.Since(start); cur == 0 || d < cur {
				return d
			}
			return cur
		}
		var vecBest, rowBest time.Duration
		for i := 0; i < 5; i++ {
			rowBest = best(row, rowBest)
			vecBest = best(vec, vecBest)
		}
		speedup := float64(rowBest) / float64(vecBest)
		t.Logf("warm %s: one-row batches %v, vectorized %v, speedup %.2fx", name, rowBest, vecBest, speedup)
		if speedup < 1.3 {
			t.Errorf("warm %s: vectorized join pipeline only %.2fx faster than one-row batches, want >= 1.3x", name, speedup)
		}
	}
}
