package core

import (
	"nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/sidecar"
)

// CacheStats reports the effectiveness of one engine-level cache (the
// prepared-statement LRU or the compiled-kernel program LRU).
type CacheStats struct {
	Size                    int
	Hits, Misses, Evictions int64
}

// EngineStats is an engine-wide observability snapshot: cache
// effectiveness plus the per-table scan counters summed over every table
// touched so far. It is assembled from atomics and short-lived mutexes
// only — taking it never waits behind a scan in flight, so a metrics
// scrape cannot stall (or be stalled by) query traffic.
type EngineStats struct {
	StmtCache   CacheStats
	KernelCache CacheStats

	// TablesTouched counts tables with instantiated format sources (i.e.
	// tables at least one query has reached).
	TablesTouched int
	// RowsKnown sums the known row counts of touched tables (-1 entries,
	// tables not fully scanned yet, count as 0).
	RowsKnown int64

	// Scan counters summed over all touched tables.
	qtrace.ScanTotals

	// Sidecar reports durable-adaptive-state activity (zero value when
	// Options.Sidecar.Enable is off).
	Sidecar sidecar.Stats
}

// Stats assembles the engine-wide snapshot. Safe for concurrent use; see
// EngineStats for the consistency contract (counters trail in-flight
// scans, which flush at close).
func (e *Engine) Stats() EngineStats {
	s := EngineStats{StmtCache: e.stmts.stats()}
	if e.sidecar != nil {
		s.Sidecar = e.sidecar.Stats()
	}
	if e.kernels != nil {
		ks := e.kernels.Snapshot()
		s.KernelCache = CacheStats{Size: ks.Size, Hits: ks.Hits, Misses: ks.Misses, Evictions: ks.Evictions}
	}
	e.mu.Lock()
	srcs := make([]format.Source, 0, len(e.sources))
	for _, src := range e.sources {
		srcs = append(srcs, src)
	}
	e.mu.Unlock()
	s.TablesTouched = len(srcs)
	var sum qtrace.Counts
	for _, src := range srcs {
		m := src.StatsLite()
		if m.Rows > 0 {
			s.RowsKnown += m.Rows
		}
		for _, c := range qtrace.TableCounters() {
			sum[c] += m.Get(c)
		}
	}
	s.ScanTotals = qtrace.Totals(&sum)
	return s
}

// TableStatsLite returns the non-blocking per-table counter snapshots for
// every touched table, keyed by table name.
func (e *Engine) TableStatsLite() map[string]TableMetrics {
	e.mu.Lock()
	names := make([]string, 0, len(e.sources))
	srcs := make([]format.Source, 0, len(e.sources))
	for name, src := range e.sources {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	e.mu.Unlock()
	out := make(map[string]TableMetrics, len(srcs))
	for i, src := range srcs {
		out[names[i]] = src.StatsLite()
	}
	return out
}
