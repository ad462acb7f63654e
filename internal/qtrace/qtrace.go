// Package qtrace is the per-query execution profile: a single allocation
// threaded through context.Context from the public API down to the scan
// leaves, accumulating phase times (plan, bind, lock-wait, raw-scan,
// cache-scan, IO) and resource counters (bytes read, tuples tokenized,
// fields parsed, positional-map probes, cache hits, kernel batches) as the
// query executes. NoDB's adaptation story — cost shifting from raw-file
// parsing toward the positional map and the binary cache — made visible
// one query at a time.
//
// qtrace also owns the counter taxonomy: each counter is defined once
// (Counter and its CounterDef row), and the per-scan (Counts), per-query
// (CounterSet), per-table and per-engine (ScanTotals) and Prometheus
// views are derived from that definition.
//
// Threading contract: the profile rides the context (NewContext /
// FromContext). Call sites capture the *Profile once at construction time;
// a nil receiver is valid everywhere and every method is a no-op on it, so
// the disabled path costs exactly one ctx lookup per query component and
// zero per row or batch. All mutation is atomic: parallel-scan workers
// share the profile pointer and merge by construction.
//
// qtrace deliberately imports nothing from the engine (exec, format, plan)
// so every layer can import it without cycles.
package qtrace

import (
	"sync/atomic"
	"time"
)

// Phase identifies one attributed slice of a query's wall time.
//
// The first four phases (queue, plan, bind, execute) are top-level and
// disjoint in a sequential run: their sum approximates the query's wall
// time, and the remainder is reported as "other". The later phases are
// details nested inside execute; io is summed across parallel workers and
// may exceed wall time on multi-core scans.
type Phase uint8

const (
	// PhaseQueue is admission-control wait measured by the server before
	// the engine sees the query (satellite fix: server and engine accounts
	// reconcile because the wait lands in the same profile).
	PhaseQueue Phase = iota
	// PhasePlan is skeleton building: parse-tree resolution and conjunct
	// classification. Cached after the first execution of a statement
	// shape, so it collapses to ~0 on warm repeats.
	PhasePlan
	// PhaseBind is parameter binding plus operator-tree assembly.
	PhaseBind
	// PhaseExecute is open-to-close time of the root operator, including
	// client think-time between cursor pulls on streamed results.
	PhaseExecute
	// PhaseLockWait is time blocked acquiring table locks (shared or
	// exclusive) inside GuardedScan, including retry re-acquisitions.
	PhaseLockWait
	// PhaseRawScan is time pulling batches out of a recording raw-file
	// scan (tokenize + parse + positional-map recording).
	PhaseRawScan
	// PhaseCacheScan is time pulling batches out of the read-only binary
	// column cache.
	PhaseCacheScan
	// PhaseIO is time inside raw-file read calls, summed across workers.
	PhaseIO
	numPhases
)

var phaseNames = [numPhases]string{
	"queue", "plan", "bind", "execute", "lock_wait", "raw_scan", "cache_scan", "io",
}

// String returns the snake_case phase name used in snapshots and logs.
func (ph Phase) String() string {
	if int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return "unknown"
}

// Counter identifies one resource counter. Its row in defs is its one
// definition; every view of it derives from that row.
type Counter uint8

// The counters, in CounterSet field order; defs documents each one.
const (
	CtrIOReads Counter = iota
	CtrIOBytes
	CtrTuplesParsed
	CtrFieldsParsed
	CtrFieldsFromMap
	CtrFieldsFromScan
	CtrShortRows
	CtrCacheHits
	CtrCacheMisses
	CtrColdScans
	CtrWarmScans
	CtrRetries
	CtrWorkers
	CtrRowsOut
	CtrKernelBatches
	CtrGenericBatches
	NumCounters
)

// Scope says which views show a counter.
type Scope uint8

const (
	// ScopeQuery counters exist only in the per-query profile.
	ScopeQuery Scope = iota
	// ScopeTable counters are scan counters: scans count them into a
	// private Counts and flush it at Close, so they also accumulate per
	// table (format.Counters), per engine (nodb.Stats) and in Prometheus.
	ScopeTable
)

// CounterDef is the one definition of a counter.
type CounterDef struct {
	Name  string // snake_case: profile JSON key and log name
	Help  string // one-line meaning; the Prometheus HELP text
	Scope Scope
	Prom  string // Prometheus family of a table-scope counter
}

var defs = [NumCounters]CounterDef{
	CtrIOReads:        {"io_reads", "Raw-file read calls through the iofault seam, across workers.", ScopeQuery, ""},
	CtrIOBytes:        {"io_bytes", "Raw-file bytes read, across workers.", ScopeQuery, ""},
	CtrTuplesParsed:   {"tuples_parsed", "Raw tuples tokenized during cold scans.", ScopeTable, "nodb_engine_tuples_parsed_total"},
	CtrFieldsParsed:   {"fields_parsed", "Raw fields converted to binary values.", ScopeTable, "nodb_engine_fields_parsed_total"},
	CtrFieldsFromMap:  {"fields_from_map", "Fields located via the positional map.", ScopeTable, "nodb_engine_fields_from_map_total"},
	CtrFieldsFromScan: {"fields_from_scan", "Fields located by delimiter scanning.", ScopeTable, "nodb_engine_fields_from_scan_total"},
	CtrShortRows:      {"short_rows", "Tuples with fewer fields than the schema.", ScopeTable, "nodb_engine_short_rows_total"},
	CtrCacheHits:      {"cache_hits", "Binary column cache hits.", ScopeTable, "nodb_engine_colcache_hits_total"},
	CtrCacheMisses:    {"cache_misses", "Binary column cache misses.", ScopeTable, "nodb_engine_colcache_misses_total"},
	CtrColdScans:      {"cold_scans", "Scans that touched the raw file.", ScopeTable, "nodb_engine_scans_cold_total"},
	CtrWarmScans:      {"warm_scans", "Scans served read-only from the binary cache.", ScopeTable, "nodb_engine_scans_warm_total"},
	CtrRetries:        {"retries", "Scan retries after mid-scan invalidation.", ScopeTable, "nodb_engine_scan_retries_total"},
	CtrWorkers:        {"workers", "Parallel scan workers launched.", ScopeQuery, ""},
	CtrRowsOut:        {"rows_out", "Rows delivered to the client cursor.", ScopeQuery, ""},
	CtrKernelBatches:  {"kernel_batches", "Batches a compiled kernel ran on (scan narrowing, residual filter, fused projection).", ScopeQuery, ""},
	CtrGenericBatches: {"generic_batches", "Batches through the generic filter and projection operators.", ScopeQuery, ""},
}

// tableCounters lists the table-scope counters in definition order.
var tableCounters = func() (out []Counter) {
	for c := range NumCounters {
		if defs[c].Scope == ScopeTable {
			out = append(out, c)
		}
	}
	return out
}()

// Def returns the counter's definition.
func (c Counter) Def() CounterDef {
	if c < NumCounters {
		return defs[c]
	}
	return CounterDef{Name: "unknown"}
}

// String returns the snake_case counter name used in snapshots and logs.
func (c Counter) String() string { return c.Def().Name }

// TableCounters lists the table-scope counters in definition order.
// Callers must not modify the slice.
func TableCounters() []Counter { return tableCounters }

// Counts is one scan's private, unsynchronized counter set: the scan adds
// to it on the hot path (a constant-index add) and flushes it once, at
// Close, through format.Counters.Flush.
type Counts [NumCounters]int64

var nextID atomic.Uint64

// strptr copies s to the heap for publication through an atomic.Pointer;
// the copy is never written again, so readers need no synchronization
// beyond the pointer load.
func strptr(s string) *string { return &s }

// Profile accumulates one query's execution profile. Create with New,
// thread with NewContext, and read with Snapshot. The zero Profile is not
// used; a nil *Profile is the "profiling disabled" state and all methods
// no-op on it.
type Profile struct {
	id    uint64
	sql   atomic.Pointer[string]
	start time.Time
	end   atomic.Int64 // unix nanos; 0 while running

	cur    atomic.Int32 // live Phase for the inspector; -1 when idle
	phases [numPhases]atomic.Int64
	ctrs   [NumCounters]atomic.Int64

	root atomic.Pointer[Span] // operator tree, set by the planner
	werr atomic.Pointer[string]
}

// New creates a profile with its wall clock started. sql may be empty and
// set later via SetSQL (the server creates the profile before decoding the
// request body).
func New(sql string) *Profile {
	p := &Profile{id: nextID.Add(1), start: time.Now()}
	p.cur.Store(-1)
	if sql != "" {
		p.sql.Store(strptr(sql))
	}
	return p
}

// ID returns the process-unique query id.
func (p *Profile) ID() uint64 {
	if p == nil {
		return 0
	}
	return p.id
}

// SetSQL records the statement text once it is known.
func (p *Profile) SetSQL(sql string) {
	if p == nil || sql == "" {
		return
	}
	p.sql.Store(strptr(sql))
}

// SetError records the terminal error of a failed query.
func (p *Profile) SetError(msg string) {
	if p == nil || msg == "" {
		return
	}
	p.werr.Store(strptr(msg))
}

// Add accumulates d into phase ph.
func (p *Profile) Add(ph Phase, d time.Duration) {
	if p == nil || d <= 0 {
		return
	}
	p.phases[ph].Add(int64(d))
}

// Count adds n to counter c.
func (p *Profile) Count(c Counter, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.ctrs[c].Add(n)
}

var noopEnd = func() {}

// Enter marks the profile as being in phase ph and returns the exit
// function that records the elapsed time. The exit function MUST be called
// on every path out of the region (the nodblint spanend analyzer enforces
// this for the engine tree); calling it more than once adds time more than
// once.
func (p *Profile) Enter(ph Phase) func() {
	if p == nil {
		return noopEnd
	}
	// Restore the enclosing phase on exit, so nested spans (a raw-scan
	// batch inside execute) leave the inspector showing the outer phase
	// rather than idle.
	prev := p.cur.Swap(int32(ph))
	start := time.Now()
	return func() {
		p.phases[ph].Add(int64(time.Since(start)))
		p.cur.Store(prev)
	}
}

// SetRoot installs the operator-span tree built by the planner.
func (p *Profile) SetRoot(sp *Span) {
	if p == nil {
		return
	}
	p.root.Store(sp)
}

// Root returns the operator-span tree, or nil.
func (p *Profile) Root() *Span {
	if p == nil {
		return nil
	}
	return p.root.Load()
}

// Finish stamps the end of the query's wall clock. Repeated calls keep the
// first stamp, so a drained-then-closed cursor finishes exactly once.
func (p *Profile) Finish() {
	if p == nil {
		return
	}
	p.end.CompareAndSwap(0, time.Now().UnixNano())
	p.cur.Store(-1)
}

// Running reports whether Finish has been called yet.
func (p *Profile) Running() bool {
	return p != nil && p.end.Load() == 0
}
