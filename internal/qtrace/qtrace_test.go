package qtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilProfileAndSpanAreNoOps: profiling is disabled by passing nil
// around, so every method the disabled path reaches must accept a nil
// receiver, change nothing and return zero values.
func TestNilProfileAndSpanAreNoOps(t *testing.T) {
	var p *Profile
	p.SetSQL("SELECT 1")
	p.SetError("boom")
	p.Add(PhaseExecute, time.Second)
	p.Count(CtrRowsOut, 5)
	p.SetRoot(NewSpan("scan t"))
	p.Enter(PhaseRawScan)()
	p.Finish()
	if p.ID() != 0 || p.Snapshot().Ctrs.RowsOut != 0 || p.Root() != nil || p.Running() {
		t.Errorf("nil profile: id %d, rows_out %d, root %v, running %v", p.ID(), p.Snapshot().Ctrs.RowsOut, p.Root(), p.Running())
	}
	if snap := p.Snapshot(); snap.ID != 0 || snap.Plan != nil || snap.Ctrs != (CounterSet{}) {
		t.Errorf("nil profile snapshot = %+v, want zero", snap)
	}

	var sp *Span
	sp.SetDetail("access=cache")
	sp.Observe(time.Millisecond, 10, 1)
	if sp.Label() != "" || sp.Detail() != "" {
		t.Errorf("nil span: label %q, detail %q", sp.Label(), sp.Detail())
	}

	ctx := context.Background()
	if NewContext(ctx, nil) != ctx {
		t.Error("NewContext with a nil profile must return the context unchanged")
	}
	var noCtx context.Context
	if FromContext(ctx) != nil || FromContext(noCtx) != nil {
		t.Error("FromContext without a profile must return nil")
	}
	r := strings.NewReader("abc")
	if CountReads(nil, r) != io.Reader(r) {
		t.Error("CountReads(nil, r) must return r itself")
	}
	if CountReaderAt(nil, r) != io.ReaderAt(r) {
		t.Error("CountReaderAt(nil, r) must return r itself")
	}

	var in *Inspector
	in.Start(New("q"))
	if snap := in.Finish(New("q")); snap.ID != 0 {
		t.Errorf("nil inspector Finish = %+v", snap)
	}
	if running, recent := in.View(); running != nil || recent != nil {
		t.Errorf("nil inspector View = %v, %v", running, recent)
	}
	NewInspector(1).Start(nil)
}

// TestCounters: each counter accumulates independently, reads back through
// CounterSet.Get, and lands in the snapshot field named by its String.
func TestCounters(t *testing.T) {
	p := New("q")
	for c := Counter(0); c < NumCounters; c++ {
		p.Count(c, int64(c)+1)
		p.Count(c, int64(c)+1)
		p.Count(c, 0) // no-op
	}
	names := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		if got, want := p.Snapshot().Ctrs.Get(c), 2*(int64(c)+1); got != want {
			t.Errorf("Counter(%s) = %d, want %d", c, got, want)
		}
		if names[c.String()] {
			t.Errorf("counter name %q is not unique", c)
		}
		names[c.String()] = true
	}
	if Counter(NumCounters).String() != "unknown" || Phase(numPhases).String() != "unknown" {
		t.Error("out-of-range counter and phase must print as unknown")
	}

	raw, err := json.Marshal(p.Snapshot().Ctrs)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]int64
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != int(NumCounters) {
		t.Errorf("snapshot has %d counters, want %d: %s", len(fields), NumCounters, raw)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if got, want := fields[c.String()], 2*(int64(c)+1); got != want {
			t.Errorf("snapshot counter %s = %d, want %d", c, got, want)
		}
	}
}

// TestCounterDefs: every counter has a name and help text; exactly the
// table-scope counters name a Prometheus family, each its own; and
// ScanTotals shows each table-scope counter under a field of its own.
func TestCounterDefs(t *testing.T) {
	var c Counts
	for ctr := range NumCounters {
		c[ctr] = int64(ctr) + 1
	}
	tot := Totals(&c)
	proms := map[string]bool{}
	for ctr := range NumCounters {
		d := ctr.Def()
		if d.Name == "" || d.Help == "" {
			t.Errorf("counter %d: empty name or help: %+v", ctr, d)
		}
		if (d.Scope == ScopeTable) != (d.Prom != "") {
			t.Errorf("counter %s: scope %d with Prometheus family %q", ctr, d.Scope, d.Prom)
		}
		if d.Scope != ScopeTable {
			continue
		}
		if proms[d.Prom] {
			t.Errorf("counter %s: Prometheus family %s is not unique", ctr, d.Prom)
		}
		proms[d.Prom] = true
		if got := tot.Get(ctr); got != c[ctr] {
			t.Errorf("ScanTotals.Get(%s) = %d, want %d", ctr, got, c[ctr])
		}
	}
	if len(proms) != len(TableCounters()) {
		t.Errorf("%d Prometheus families, %d table counters", len(proms), len(TableCounters()))
	}
	raw, err := json.Marshal(tot)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]int64
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != len(TableCounters()) {
		t.Errorf("ScanTotals has %d fields, want one per table counter: %s", len(fields), raw)
	}
	for name, v := range fields {
		if v == 0 {
			t.Errorf("ScanTotals.%s shows no counter", name)
		}
	}
}

// TestSpanObserve: Observe accumulates time, rows and batches, ignoring
// non-positive amounts.
func TestSpanObserve(t *testing.T) {
	sp := NewSpan("scan t")
	sp.Observe(2*time.Millisecond, 100, 1)
	sp.Observe(3*time.Millisecond, 50, 1)
	sp.Observe(-time.Millisecond, -1, 0)
	sp.Observe(0, 0, 2)
	got := sp.snapshot()
	if got.NS != int64(5*time.Millisecond) || got.Rows != 150 || got.Batches != 4 {
		t.Errorf("span = ns %d rows %d batches %d, want 5ms, 150, 4", got.NS, got.Rows, got.Batches)
	}
	sp.SetDetail("access=cache")
	if sp.Label() != "scan t" || sp.Detail() != "access=cache" {
		t.Errorf("span label %q detail %q", sp.Label(), sp.Detail())
	}
}

// fixedProfile builds a finished profile over a fixed span tree with fixed
// phase times and counters.
func fixedProfile() *Profile {
	a := NewSpan("scan a")
	a.SetDetail("access=cache")
	a.Observe(250*time.Microsecond, 2, 1)
	b := NewSpan("scan b")
	b.Observe(500*time.Microsecond, 5, 2)
	join := NewSpan("hash join", a, b)
	join.SetDetail("build_rows=2")
	join.Observe(1500*time.Microsecond, 3, 1)
	root := NewSpan("project", join)
	root.Observe(2*time.Millisecond, 3, 0)

	p := New("SELECT x FROM a, b")
	p.SetRoot(root)
	for _, ph := range []struct {
		ph Phase
		d  time.Duration
	}{
		{PhasePlan, 100 * time.Microsecond},
		{PhaseBind, 200 * time.Microsecond},
		{PhaseExecute, 3 * time.Millisecond},
		{PhaseLockWait, 10 * time.Microsecond},
		{PhaseRawScan, time.Millisecond},
		{PhaseCacheScan, 500 * time.Microsecond},
		{PhaseIO, 300 * time.Microsecond},
	} {
		p.Add(ph.ph, ph.d)
	}
	p.Count(CtrIOReads, 4)
	p.Count(CtrIOBytes, 4096)
	p.Count(CtrTuplesParsed, 5)
	p.Count(CtrFieldsParsed, 10)
	p.Count(CtrFieldsFromMap, 6)
	p.Count(CtrFieldsFromScan, 4)
	p.Count(CtrCacheHits, 2)
	p.Count(CtrColdScans, 1)
	p.Count(CtrWarmScans, 1)
	p.Count(CtrKernelBatches, 3)
	p.Count(CtrRowsOut, 3)
	p.Finish()
	return p
}

// TestSnapshotTreeAndRenderText checks the snapshot of a fixed span tree
// and its EXPLAIN / EXPLAIN ANALYZE renderings line by line.
func TestSnapshotTreeAndRenderText(t *testing.T) {
	p := fixedProfile()
	s := p.Snapshot()
	if s.SQL != "SELECT x FROM a, b" || s.Running || s.Phase != "" {
		t.Errorf("snapshot header: sql %q running %v phase %q", s.SQL, s.Running, s.Phase)
	}
	if s.Plan == nil || s.Plan.Label != "project" || len(s.Plan.Children) != 1 {
		t.Fatalf("plan root = %+v", s.Plan)
	}
	join := s.Plan.Children[0]
	if join.Label != "hash join" || join.Detail != "build_rows=2" || len(join.Children) != 2 ||
		join.Children[0].Label != "scan a" || join.Children[1].Label != "scan b" {
		t.Errorf("join subtree = %+v", join)
	}
	if s.Phases.TopLevelNS() != int64(3300*time.Microsecond) {
		t.Errorf("top-level phases = %d ns, want 3.3ms", s.Phases.TopLevelNS())
	}
	if s.WallNS < 0 || (s.Phases.OtherNS != 0 && s.Phases.OtherNS != s.WallNS-s.Phases.TopLevelNS()) {
		t.Errorf("wall %d ns, other %d ns", s.WallNS, s.Phases.OtherNS)
	}

	tree := []string{
		"project",
		"  -> hash join [build_rows=2]",
		"    -> scan a [access=cache]",
		"    -> scan b",
	}
	if got := s.RenderText(false); strings.Join(got, "\n") != strings.Join(tree, "\n") {
		t.Errorf("EXPLAIN =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(tree, "\n"))
	}

	want := []string{
		"project (rows=3 time=2.000ms)",
		"  -> hash join [build_rows=2] (rows=3 batches=1 time=1.500ms)",
		"    -> scan a [access=cache] (rows=2 batches=1 time=0.250ms)",
		"    -> scan b (rows=5 batches=2 time=0.500ms)",
		"Planning: plan=0.100ms bind=0.200ms",
		"Execution: 3.000ms (lock-wait=0.010ms raw-scan=1.000ms cache-scan=0.500ms io=0.300ms)",
		"IO: reads=4 bytes=4096",
		"Parse: tuples=5 fields=10 (map=6 scan=4 short=0)",
		"Cache: hits=2 misses=0",
		"Scans: cold=1 warm=1 retries=0 workers=0",
		"Kernels: compiled-batches=3 generic-batches=0",
	}
	got := s.RenderText(true)
	if len(got) != len(want)+1 || !strings.HasPrefix(got[len(got)-1], "Total: ") {
		t.Fatalf("EXPLAIN ANALYZE =\n%s", strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EXPLAIN ANALYZE line %d = %q, want %q", i, got[i], want[i])
		}
	}

	// The snapshot is the JSON payload of the profile trailer and the
	// inspector: it must round-trip.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Plan == nil || back.Plan.Children[0].Children[1].Batches != 2 || back.Ctrs != s.Ctrs {
		t.Errorf("snapshot JSON round trip lost data: %s", raw)
	}
}

// TestEnterAndFinish: Enter shows the live phase to a running snapshot,
// its exit restores the enclosing phase and records the elapsed time, and
// Finish stamps the wall clock once.
func TestEnterAndFinish(t *testing.T) {
	p := New("")
	p.SetSQL("SELECT 1")
	p.SetError("")
	if !p.Running() || p.Snapshot().Phase != "" {
		t.Fatalf("fresh profile: running %v, phase %q", p.Running(), p.Snapshot().Phase)
	}
	exitOuter := p.Enter(PhaseExecute)
	exitInner := p.Enter(PhaseCacheScan)
	if s := p.Snapshot(); !s.Running || s.Phase != "cache_scan" {
		t.Errorf("inside cache scan: running %v, phase %q", s.Running, s.Phase)
	}
	time.Sleep(time.Millisecond)
	exitInner()
	if ph := p.Snapshot().Phase; ph != "execute" {
		t.Errorf("after the nested exit, phase %q, want execute", ph)
	}
	exitOuter()
	p.SetError("cancelled")
	p.Finish()
	s := p.Snapshot()
	if s.Running || p.Running() || s.SQL != "SELECT 1" || s.Error != "cancelled" {
		t.Errorf("finished snapshot: running %v sql %q error %q", s.Running, s.SQL, s.Error)
	}
	if s.Phases.CacheScanNS < int64(time.Millisecond) || s.Phases.ExecuteNS < s.Phases.CacheScanNS {
		t.Errorf("phases execute %d ns, cache scan %d ns", s.Phases.ExecuteNS, s.Phases.CacheScanNS)
	}
	time.Sleep(time.Millisecond)
	p.Finish()
	if again := p.Snapshot().WallNS; again != s.WallNS {
		t.Errorf("second Finish moved the wall clock: %d -> %d", s.WallNS, again)
	}
	if p.ID() == 0 || New("").ID() == p.ID() {
		t.Error("profile ids must be nonzero and unique")
	}
}

// TestContextAndReaders: the profile rides the context, and the counting
// readers attribute calls and bytes to it.
func TestContextAndReaders(t *testing.T) {
	p := New("q")
	ctx := NewContext(context.Background(), p)
	if FromContext(ctx) != p {
		t.Fatal("FromContext did not return the attached profile")
	}
	data := bytes.Repeat([]byte("x"), 100)
	got, err := io.ReadAll(CountReads(p, bytes.NewReader(data)))
	if err != nil || len(got) != 100 {
		t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
	}
	reads := p.Snapshot().Ctrs.IOReads
	if reads < 1 || p.Snapshot().Ctrs.IOBytes != 100 {
		t.Errorf("sequential reads: %d calls, %d bytes", reads, p.Snapshot().Ctrs.IOBytes)
	}
	buf := make([]byte, 10)
	if n, err := CountReaderAt(p, bytes.NewReader(data)).ReadAt(buf, 95); n != 5 || err != io.EOF {
		t.Errorf("ReadAt = %d, %v", n, err)
	}
	if p.Snapshot().Ctrs.IOReads != reads+1 || p.Snapshot().Ctrs.IOBytes != 105 {
		t.Errorf("positioned read: %d calls, %d bytes", p.Snapshot().Ctrs.IOReads, p.Snapshot().Ctrs.IOBytes)
	}
}

// TestInspector: Start lists a profile as running; Finish moves it into
// the ring, which keeps the last n, most recent first.
func TestInspector(t *testing.T) {
	in := NewInspector(2)
	p1, p2, p3 := New("q1"), New("q2"), New("q3")
	in.Start(p1)
	in.Start(p2)
	if running, recent := in.View(); len(running) != 2 || len(recent) != 0 {
		t.Fatalf("view = %d running, %d recent", len(running), len(recent))
	}
	for _, p := range []*Profile{p1, p2, p3} { // p3 was never started
		if snap := in.Finish(p); snap.ID != p.ID() || snap.Running {
			t.Errorf("Finish(%s) = %+v", snap.SQL, snap)
		}
	}
	running, recent := in.View()
	if len(running) != 0 || len(recent) != 2 || recent[0].SQL != "q3" || recent[1].SQL != "q2" {
		t.Errorf("view = %v running, recent %v", running, recent)
	}
}

// TestConcurrentCountAndObserve: parallel scan workers share one profile
// and its spans; every update must land, and snapshots taken meanwhile must
// be safe (run with -race).
func TestConcurrentCountAndObserve(t *testing.T) {
	const workers, iters = 8, 1000
	p := New("q")
	leaf := NewSpan("scan t")
	p.SetRoot(NewSpan("project", leaf))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p.Count(CtrFieldsParsed, 2)
				p.Add(PhaseIO, time.Microsecond)
				leaf.Observe(time.Microsecond, 3, 1)
				if i%100 == 0 {
					leaf.SetDetail("access=raw")
					_ = p.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	p.Finish()
	s := p.Snapshot()
	sp := s.Plan.Children[0]
	if s.Ctrs.FieldsParsed != 2*workers*iters || s.Phases.IONS != int64(workers*iters)*int64(time.Microsecond) {
		t.Errorf("fields parsed %d, io %d ns", s.Ctrs.FieldsParsed, s.Phases.IONS)
	}
	if sp.Rows != 3*workers*iters || sp.Batches != workers*iters || sp.NS != int64(workers*iters)*int64(time.Microsecond) {
		t.Errorf("leaf span rows %d batches %d ns %d", sp.Rows, sp.Batches, sp.NS)
	}
}
