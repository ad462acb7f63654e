package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// drainPlanned plans and streams one query through p under ctx, returning
// the drain's wall time.
func drainPlanned(tb testing.TB, p *Prepared, ctx context.Context) time.Duration {
	tb.Helper()
	start := time.Now()
	op, _, err := p.Plan(ctx, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := exec.Count(op); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkWarmScanUnprofiled measures the warm cache scan with no profile
// in the context — the qtrace-disabled path every query takes by default.
// Compare against BenchmarkWarmScanProfiled:
//
//	go test -bench 'BenchmarkWarmScan(Unp|P)rofiled' ./internal/core/
func BenchmarkWarmScanUnprofiled(b *testing.B) {
	benchProfiledScan(b, false)
}

// BenchmarkWarmScanProfiled measures the identical workload with a profile
// attached — the opt-in EXPLAIN ANALYZE / ?profile=1 path.
func BenchmarkWarmScanProfiled(b *testing.B) {
	benchProfiledScan(b, true)
}

func benchProfiledScan(b *testing.B, profiled bool) {
	const rows = 20_000
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	e := benchWarmEngine(b, rows, false)
	p, err := e.PrepareStmt(sql)
	if err != nil {
		b.Fatal(err)
	}
	drainPlanned(b, p, context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if profiled {
			ctx = qtrace.NewContext(ctx, qtrace.New(sql))
		}
		drainPlanned(b, p, ctx)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// spanWrapped reports whether a planned pipeline's root carries a qtrace
// span wrapper.
func spanWrapped(op exec.Operator) bool {
	_, ok := op.(*exec.Span)
	return ok
}

// TestProfileOverheadOnWarmScan is the overhead gate for the qtrace
// instrumentation on a warm cached Filter+Project scan. The disabled path
// is checked deterministically: every hook gates on a nil profile fetched
// once per component, so a request context that carries no profile must
// plan the bare operator chain (no span wrappers) and allocate exactly what
// the same query allocates under context.Background(). With
// -timing-gate, a fully profiled run must also stay within 5 % of the
// baseline's wall time; the series interleave round-robin and compare by
// their minimum, because scheduler noise only ever adds time. Skipped
// under -short and the race detector (whose instrumentation and sync.Pool
// drops distort both counts).
func TestProfileOverheadOnWarmScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-row warm engine; run without -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts allocation counts and timing")
	}
	const (
		rows   = 40_000
		rounds = 25
	)
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	e := benchWarmEngine(t, rows, false)
	p, err := e.PrepareStmt(sql)
	if err != nil {
		t.Fatal(err)
	}
	bare := context.Background()
	drainPlanned(t, p, bare) // plans warm, caches verified

	type requestKey struct{}
	disabled := context.WithValue(bare, requestKey{}, "request-scoped value")
	for _, c := range []struct {
		ctx  context.Context
		want bool
	}{{disabled, false}, {qtrace.NewContext(bare, qtrace.New(sql)), true}} {
		op, _, err := p.Plan(c.ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := spanWrapped(op); got != c.want {
			t.Errorf("profile in context = %v: plan span-wrapped = %v", c.want, got)
		}
	}
	var base, off float64
	for attempt := 0; attempt < 3; attempt++ {
		base = testing.AllocsPerRun(10, func() { drainPlanned(t, p, bare) })
		off = testing.AllocsPerRun(10, func() { drainPlanned(t, p, disabled) })
		if off == base {
			break
		}
	}
	if off != base {
		t.Errorf("profiling-disabled query allocates %.0f times, the bare context %.0f", off, base)
	}
	if !*timingGate {
		return
	}

	minOf := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[0]
	}
	var onOver float64
	for attempt := 0; attempt < 3; attempt++ {
		var baseT, on []time.Duration
		for r := 0; r < rounds; r++ {
			baseT = append(baseT, drainPlanned(t, p, bare))
			on = append(on, drainPlanned(t, p, qtrace.NewContext(bare, qtrace.New(sql))))
		}
		onOver = float64(minOf(on))/float64(minOf(baseT)) - 1
		t.Logf("warm Filter+Project attempt %d: base %v, profiled %+.2f%%", attempt, minOf(baseT), onOver*100)
		if onOver <= 0.05 {
			return
		}
	}
	t.Errorf("profiled overhead %+.2f%% > 5%% after 3 attempts", onOver*100)
}
