package qtrace

import (
	"fmt"
	"strings"
	"time"
)

// PhaseSet is the attributed wall-time split. Queue, plan, bind, and
// execute are top-level and disjoint; their sum plus Other approximates
// WallNS. LockWait, RawScan, and CacheScan are details nested inside
// execute; IO is summed across parallel workers and may exceed wall time.
type PhaseSet struct {
	QueueNS     int64 `json:"queue_ns,omitempty"`
	PlanNS      int64 `json:"plan_ns"`
	BindNS      int64 `json:"bind_ns"`
	ExecuteNS   int64 `json:"execute_ns"`
	OtherNS     int64 `json:"other_ns"`
	LockWaitNS  int64 `json:"lock_wait_ns,omitempty"`
	RawScanNS   int64 `json:"raw_scan_ns,omitempty"`
	CacheScanNS int64 `json:"cache_scan_ns,omitempty"`
	IONS        int64 `json:"io_ns,omitempty"`
}

// TopLevelNS returns the sum of the disjoint top-level phases.
func (ps PhaseSet) TopLevelNS() int64 {
	return ps.QueueNS + ps.PlanNS + ps.BindNS + ps.ExecuteNS
}

// CounterSet is the per-query resource account: every counter, under its
// definition's name as the JSON key.
type CounterSet struct {
	IOReads        int64 `json:"io_reads,omitempty"`
	IOBytes        int64 `json:"io_bytes,omitempty"`
	TuplesParsed   int64 `json:"tuples_parsed,omitempty"`
	FieldsParsed   int64 `json:"fields_parsed,omitempty"`
	FieldsFromMap  int64 `json:"fields_from_map,omitempty"`
	FieldsFromScan int64 `json:"fields_from_scan,omitempty"`
	ShortRows      int64 `json:"short_rows,omitempty"`
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	ColdScans      int64 `json:"cold_scans,omitempty"`
	WarmScans      int64 `json:"warm_scans,omitempty"`
	Retries        int64 `json:"retries,omitempty"`
	Workers        int64 `json:"workers,omitempty"`
	RowsOut        int64 `json:"rows_out"`
	KernelBatches  int64 `json:"kernel_batches,omitempty"`
	GenericBatches int64 `json:"generic_batches,omitempty"`
}

// fields maps each counter to the field that shows it.
func (cs *CounterSet) fields() [NumCounters]*int64 {
	return [NumCounters]*int64{
		CtrIOReads: &cs.IOReads, CtrIOBytes: &cs.IOBytes,
		CtrTuplesParsed: &cs.TuplesParsed, CtrFieldsParsed: &cs.FieldsParsed,
		CtrFieldsFromMap: &cs.FieldsFromMap, CtrFieldsFromScan: &cs.FieldsFromScan,
		CtrShortRows: &cs.ShortRows, CtrCacheHits: &cs.CacheHits, CtrCacheMisses: &cs.CacheMisses,
		CtrColdScans: &cs.ColdScans, CtrWarmScans: &cs.WarmScans, CtrRetries: &cs.Retries,
		CtrWorkers: &cs.Workers, CtrRowsOut: &cs.RowsOut,
		CtrKernelBatches: &cs.KernelBatches, CtrGenericBatches: &cs.GenericBatches,
	}
}

// Get returns counter c.
func (cs CounterSet) Get(c Counter) int64 { return *cs.fields()[c] }

// ScanTotals shows the table-scope counters under named fields. It is
// embedded untagged in the per-table (format.Metrics) and per-engine
// (core.EngineStats) views, so its field names are their JSON keys.
type ScanTotals struct {
	ColdScans      int64
	WarmScans      int64
	ScanRetries    int64
	TuplesParsed   int64
	FieldsParsed   int64
	FieldsFromMap  int64
	FieldsFromScan int64
	ShortRows      int64
	CacheHits      int64
	CacheMisses    int64
}

// fields maps each table-scope counter to the field that shows it.
func (t *ScanTotals) fields() [NumCounters]*int64 {
	return [NumCounters]*int64{
		CtrColdScans: &t.ColdScans, CtrWarmScans: &t.WarmScans, CtrRetries: &t.ScanRetries,
		CtrTuplesParsed: &t.TuplesParsed, CtrFieldsParsed: &t.FieldsParsed,
		CtrFieldsFromMap: &t.FieldsFromMap, CtrFieldsFromScan: &t.FieldsFromScan,
		CtrShortRows: &t.ShortRows, CtrCacheHits: &t.CacheHits, CtrCacheMisses: &t.CacheMisses,
	}
}

// Totals shows the table-scope counters of c.
func Totals(c *Counts) ScanTotals {
	var t ScanTotals
	f := t.fields()
	for _, ctr := range tableCounters {
		*f[ctr] = c[ctr]
	}
	return t
}

// Get returns counter c, which must be table-scope.
func (t ScanTotals) Get(c Counter) int64 { return *t.fields()[c] }

// Snapshot is the immutable, JSON-serializable view of a profile. It is
// the payload of Rows.Profile(), the nodbd ?profile=1 trailer, the
// /debug/queries inspector, and the slow-query log.
type Snapshot struct {
	ID      uint64     `json:"id"`
	SQL     string     `json:"sql,omitempty"`
	Start   time.Time  `json:"start"`
	WallNS  int64      `json:"wall_ns"`
	Running bool       `json:"running,omitempty"`
	Phase   string     `json:"phase,omitempty"` // live phase while running
	Error   string     `json:"error,omitempty"`
	Phases  PhaseSet   `json:"phases"`
	Ctrs    CounterSet `json:"counters"`
	Plan    *SpanInfo  `json:"plan,omitempty"`
}

// Snapshot captures the profile's current state. Valid while the query is
// still running (the inspector's live view) and after Finish.
func (p *Profile) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{ID: p.id, Start: p.start}
	if sql := p.sql.Load(); sql != nil {
		s.SQL = *sql
	}
	if msg := p.werr.Load(); msg != nil {
		s.Error = *msg
	}
	if end := p.end.Load(); end != 0 {
		s.WallNS = end - p.start.UnixNano()
	} else {
		s.Running = true
		s.WallNS = int64(time.Since(p.start))
		if cur := p.cur.Load(); cur >= 0 {
			s.Phase = Phase(cur).String()
		}
	}
	s.Phases = PhaseSet{
		QueueNS:     p.phases[PhaseQueue].Load(),
		PlanNS:      p.phases[PhasePlan].Load(),
		BindNS:      p.phases[PhaseBind].Load(),
		ExecuteNS:   p.phases[PhaseExecute].Load(),
		LockWaitNS:  p.phases[PhaseLockWait].Load(),
		RawScanNS:   p.phases[PhaseRawScan].Load(),
		CacheScanNS: p.phases[PhaseCacheScan].Load(),
		IONS:        p.phases[PhaseIO].Load(),
	}
	if other := s.WallNS - s.Phases.TopLevelNS(); other > 0 {
		s.Phases.OtherNS = other
	}
	for c, f := range s.Ctrs.fields() {
		*f = p.ctrs[c].Load()
	}
	if root := p.root.Load(); root != nil {
		info := root.snapshot()
		s.Plan = &info
	}
	return s
}

func ms(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// RenderText renders the snapshot as the EXPLAIN ANALYZE text block: the
// operator tree annotated with attributed times and counters, followed by
// the phase and resource accounts. analyzed=false (plain EXPLAIN) prints
// the tree shape without timings.
func (s Snapshot) RenderText(analyzed bool) []string {
	var lines []string
	if s.Plan != nil {
		renderSpan(&lines, *s.Plan, 0, analyzed)
	}
	if !analyzed {
		return lines
	}
	lines = append(lines,
		fmt.Sprintf("Planning: plan=%s bind=%s", ms(s.Phases.PlanNS), ms(s.Phases.BindNS)),
		fmt.Sprintf("Execution: %s (lock-wait=%s raw-scan=%s cache-scan=%s io=%s)",
			ms(s.Phases.ExecuteNS), ms(s.Phases.LockWaitNS),
			ms(s.Phases.RawScanNS), ms(s.Phases.CacheScanNS), ms(s.Phases.IONS)),
		fmt.Sprintf("IO: reads=%d bytes=%d", s.Ctrs.IOReads, s.Ctrs.IOBytes),
		fmt.Sprintf("Parse: tuples=%d fields=%d (map=%d scan=%d short=%d)",
			s.Ctrs.TuplesParsed, s.Ctrs.FieldsParsed,
			s.Ctrs.FieldsFromMap, s.Ctrs.FieldsFromScan, s.Ctrs.ShortRows),
		fmt.Sprintf("Cache: hits=%d misses=%d", s.Ctrs.CacheHits, s.Ctrs.CacheMisses),
		fmt.Sprintf("Scans: cold=%d warm=%d retries=%d workers=%d",
			s.Ctrs.ColdScans, s.Ctrs.WarmScans, s.Ctrs.Retries, s.Ctrs.Workers),
		fmt.Sprintf("Kernels: compiled-batches=%d generic-batches=%d",
			s.Ctrs.KernelBatches, s.Ctrs.GenericBatches),
		fmt.Sprintf("Total: %s", ms(s.WallNS)),
	)
	return lines
}

func renderSpan(lines *[]string, sp SpanInfo, depth int, analyzed bool) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		b.WriteString("-> ")
	}
	b.WriteString(sp.Label)
	if sp.Detail != "" {
		b.WriteString(" [")
		b.WriteString(sp.Detail)
		b.WriteString("]")
	}
	if analyzed {
		fmt.Fprintf(&b, " (rows=%d", sp.Rows)
		if sp.Batches > 0 {
			fmt.Fprintf(&b, " batches=%d", sp.Batches)
		}
		fmt.Fprintf(&b, " time=%s)", ms(sp.NS))
	}
	*lines = append(*lines, b.String())
	for _, c := range sp.Children {
		renderSpan(lines, c, depth+1, analyzed)
	}
}
