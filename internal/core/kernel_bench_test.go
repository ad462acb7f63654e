package core

import (
	"sort"
	"testing"
)

// benchKernelEngine opens a warm engine with the kernel compiler on or
// off; both share the vectorized batch pipeline, so the measured delta
// isolates compiled kernels + fused tail vs the generic expression walk.
func benchKernelEngine(tb testing.TB, rows int, disableKernels bool) *Engine {
	tb.Helper()
	cat := buildFixture(tb, tb.TempDir(), rows)
	e, err := Open(cat, Options{
		Mode:           ModePMCache,
		Parallelism:    1,
		DisableKernels: disableKernels,
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

// BenchmarkWarmScanGeneric measures the generic vectorized pipeline on a
// fully cached table. Compare against BenchmarkWarmScanKernels:
//
//	go test -bench 'BenchmarkWarmScan(Generic|Kernels)' ./internal/core/
func BenchmarkWarmScanGeneric(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			benchKernelScan(b, q.sql, true)
		})
	}
}

// BenchmarkWarmScanKernels measures the fused kernel path on the
// identical workload.
func BenchmarkWarmScanKernels(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			benchKernelScan(b, q.sql, false)
		})
	}
}

func benchKernelScan(b *testing.B, sql string, disableKernels bool) {
	const rows = 20_000
	e := benchKernelEngine(b, rows, disableKernels)
	drainQuery(b, e, sql)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainQuery(b, e, sql)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestKernelSpeedupOnWarmScan gates the kernel tier on a warm cached
// multi-conjunct Filter+Project query. Both engines run the identical
// batch pipeline over the identical cache. Deterministically, the default
// engine must run every batch through compiled kernels under a fused
// projection tail, and the DisableKernels engine every batch through the
// generic walk under a plain projection; both return the same rows. With
// -timing-gate the compiled path must also clear 1.1x the generic
// pipeline's throughput: each attempt interleaves generic/kernel pairs
// and takes the median ratio, so frequency drift between measurement
// windows cannot fake a pass or a failure.
func TestKernelSpeedupOnWarmScan(t *testing.T) {
	const floor = 1.1
	sql := "SELECT id FROM wide WHERE a < 6 AND b >= 0 AND c >= 0.0 AND d >= date '1995-01-01' AND name <> 'zz' AND id >= 0"
	gen := benchKernelEngine(t, 20_000, true)
	ker := benchKernelEngine(t, 20_000, false)
	drainQuery(t, gen, sql)
	drainQuery(t, ker, sql)
	gs, ks := profileQuery(t, gen, sql), profileQuery(t, ker, sql)
	if gs.Plan.Rows != ks.Plan.Rows {
		t.Fatalf("generic and kernel engines returned %d and %d rows", gs.Plan.Rows, ks.Plan.Rows)
	}
	if ks.Ctrs.KernelBatches == 0 || ks.Ctrs.GenericBatches != 0 || ks.Plan.Label != "fused project" {
		t.Errorf("kernel engine: %d kernel batches, %d generic batches, root %q; want > 0, 0 and \"fused project\"",
			ks.Ctrs.KernelBatches, ks.Ctrs.GenericBatches, ks.Plan.Label)
	}
	if gs.Ctrs.KernelBatches != 0 || gs.Ctrs.GenericBatches == 0 || gs.Plan.Label != "project" {
		t.Errorf("DisableKernels engine: %d kernel batches, %d generic batches, root %q; want 0, > 0 and \"project\"",
			gs.Ctrs.KernelBatches, gs.Ctrs.GenericBatches, gs.Plan.Label)
	}
	if !*timingGate {
		return
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio")
	}
	qps := func(e *Engine) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, sql)
			}
		})
		return float64(r.N) / r.T.Seconds()
	}
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		ratios := make([]float64, 0, 3)
		for pair := 0; pair < 3; pair++ {
			g := qps(gen)
			k := qps(ker)
			ratios = append(ratios, k/g)
		}
		sort.Float64s(ratios)
		speedup = ratios[1] // median of three interleaved pairs
		t.Logf("attempt %d: pair ratios %.2f/%.2f/%.2f, median %.2fx",
			attempt, ratios[0], ratios[1], ratios[2], speedup)
		if speedup >= floor {
			return
		}
	}
	t.Errorf("fused kernel warm scan speedup %.2fx < %.1fx target after 3 attempts", speedup, floor)
}
