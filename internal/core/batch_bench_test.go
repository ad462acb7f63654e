package core

import (
	"testing"
	"time"

	"nodb/internal/exec"
	"nodb/internal/tpch"
)

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

// BenchmarkWarmScanRow measures row-at-a-time execution over a fully
// cached table. Compare against BenchmarkWarmScanBatch:
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
// selective tokenize/parse pipeline.
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

// TestBatchSpeedupOnWarmScan is the in-repo demonstration of the
// acceptance criterion: the vectorized pipeline must clear 1.5x the
// row-path throughput on a warm cached Filter+Project scan. It measures
// with testing.Benchmark so CI smoke runs (-benchtime=1x) stay fast, and
// is skipped in -short mode to keep it off noisy constrained runners.
func TestBatchSpeedupOnWarmScan(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; run without -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the row/batch timing ratio")
	}
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	measure := func(disable bool) float64 {
		e := benchWarmEngine(t, 20_000, disable)
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

// TestJoinSpeedupOnWarmTPCH is the join gate: with every column cached, the
// default engine — scans read batch-at-a-time with compiled kernels below a
// batch-native hash join that feeds the aggregation batches — must answer
// TPC-H Q3 and Q12 at least 1.3x faster than the DisableVectorized engine,
// which runs the same join over row-path scans and an interpreted row tail.
// Each side is its best of five interleaved runs.
func TestJoinSpeedupOnWarmTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; run without -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the row/batch timing ratio")
	}
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
		best := func(e *Engine, cur time.Duration) time.Duration {
			start := time.Now()
			drainQuery(t, e, sql)
			if d := time.Since(start); cur == 0 || d < cur {
				return d
			}
			return cur
		}
		drainQuery(t, vec, sql) // untimed: plans, kernels and statistics settle
		drainQuery(t, row, sql)
		if parsed := vec.Metrics("lineitem").TuplesParsed; parsed != row.Metrics("lineitem").TuplesParsed {
			t.Fatalf("%s: engines did not warm alike", name)
		}
		var vecBest, rowBest time.Duration
		for i := 0; i < 5; i++ {
			rowBest = best(row, rowBest)
			vecBest = best(vec, vecBest)
		}
		speedup := float64(rowBest) / float64(vecBest)
		t.Logf("warm %s: row path %v, vectorized %v, speedup %.2fx", name, rowBest, vecBest, speedup)
		if speedup < 1.3 {
			t.Errorf("warm %s: vectorized join pipeline only %.2fx faster than the row path, want >= 1.3x", name, speedup)
		}
	}
}
