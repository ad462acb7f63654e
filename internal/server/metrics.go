package server

import (
	"nodb"
	"nodb/internal/metrics"
	"nodb/internal/qtrace"
)

// serverMetrics is every instrument the HTTP layer records into. The
// instruments live in one metrics.Registry shared with (and scraped
// alongside) the engine-internal callback gauges, so /metrics is a single
// coherent snapshot of the server and the engine under it.
type serverMetrics struct {
	reg *metrics.Registry

	httpRequests *metrics.CounterVec // by path
	queries      *metrics.CounterVec // by outcome: ok|client_error|engine_error|deadline|canceled
	queryErrors  *metrics.CounterVec // by typed-error kind
	rejected     *metrics.CounterVec // by admission reason: queue_full|queue_timeout|draining

	queryDuration *metrics.Histogram
	queueWait     *metrics.Histogram

	rowsReturned  *metrics.Counter
	bytesReturned *metrics.Counter
	stmtReused    *metrics.Counter
	stmtPrepared  *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		reg:          reg,
		httpRequests: reg.CounterVec("nodb_http_requests_total", "HTTP requests served, by path.", "path"),
		queries:      reg.CounterVec("nodb_queries_total", "Queries finished, by outcome.", "outcome"),
		queryErrors:  reg.CounterVec("nodb_query_errors_total", "Query failures, by typed-error kind.", "kind"),
		rejected:     reg.CounterVec("nodb_admission_rejected_total", "Queries rejected by admission control, by reason.", "reason"),
		queryDuration: reg.Histogram("nodb_query_duration_seconds",
			"Wall-clock latency of finished queries.", metrics.DefBuckets),
		queueWait: reg.Histogram("nodb_query_queue_wait_seconds",
			"Time queries spent waiting for an admission slot.", metrics.DefBuckets),
		rowsReturned:  reg.Counter("nodb_query_rows_total", "Result rows streamed to clients."),
		bytesReturned: reg.Counter("nodb_query_bytes_total", "Response body bytes streamed to clients."),
		stmtReused:    reg.Counter("nodb_session_stmts_reused_total", "Session-cached prepared statements reused."),
		stmtPrepared:  reg.Counter("nodb_session_stmts_prepared_total", "Statements prepared into session caches."),
	}
}

// registerEngineMetrics exposes the engine's internal counters as callback
// instruments: each scrape takes a fresh non-blocking nodb.Stats snapshot
// (atomics only — a scrape never waits behind a running scan). The scan
// counters export one family per table-scope qtrace counter, named and
// described by its definition.
func registerEngineMetrics(reg *metrics.Registry, db *nodb.DB) {
	counter := func(name, help string, pick func(nodb.Stats) int64) {
		reg.RegisterFunc(name, help, false, func() int64 { return pick(db.Stats()) })
	}
	gauge := func(name, help string, pick func(nodb.Stats) int64) {
		reg.RegisterFunc(name, help, true, func() int64 { return pick(db.Stats()) })
	}
	counter("nodb_engine_stmt_cache_hits_total", "Prepared-statement cache hits.",
		func(s nodb.Stats) int64 { return s.StmtCache.Hits })
	counter("nodb_engine_stmt_cache_misses_total", "Prepared-statement cache misses.",
		func(s nodb.Stats) int64 { return s.StmtCache.Misses })
	counter("nodb_engine_stmt_cache_evictions_total", "Prepared-statement cache evictions.",
		func(s nodb.Stats) int64 { return s.StmtCache.Evictions })
	counter("nodb_engine_kernel_cache_hits_total", "Compiled-kernel program cache hits.",
		func(s nodb.Stats) int64 { return s.KernelCache.Hits })
	counter("nodb_engine_kernel_cache_misses_total", "Compiled-kernel program cache misses.",
		func(s nodb.Stats) int64 { return s.KernelCache.Misses })
	counter("nodb_engine_kernel_cache_evictions_total", "Compiled-kernel program cache evictions.",
		func(s nodb.Stats) int64 { return s.KernelCache.Evictions })
	for _, c := range qtrace.TableCounters() {
		d := c.Def()
		counter(d.Prom, d.Help, func(s nodb.Stats) int64 { return s.Get(c) })
	}
	gauge("nodb_engine_tables_touched", "Tables with instantiated format sources.",
		func(s nodb.Stats) int64 { return int64(s.TablesTouched) })
	gauge("nodb_engine_rows_known", "Known row counts summed over touched tables.",
		func(s nodb.Stats) int64 { return s.RowsKnown })
	counter("nodb_engine_sidecar_checkpoints_total", "Sidecar checkpoint files written.",
		func(s nodb.Stats) int64 { return s.Sidecar.Checkpoints })
	counter("nodb_engine_sidecar_checkpoint_errors_total", "Failed sidecar checkpoint attempts.",
		func(s nodb.Stats) int64 { return s.Sidecar.CheckpointErrors })
	counter("nodb_engine_sidecar_bytes_written_total", "Bytes written into sidecar files.",
		func(s nodb.Stats) int64 { return s.Sidecar.BytesWritten })
	counter("nodb_engine_sidecar_load_hits_total", "Tables warm-started from a valid sidecar.",
		func(s nodb.Stats) int64 { return s.Sidecar.LoadHits })
	counter("nodb_engine_sidecar_load_misses_total", "Tables that opened cold (sidecar absent, stale or corrupt).",
		func(s nodb.Stats) int64 { return s.Sidecar.LoadMisses })
	counter("nodb_engine_sidecar_corrupt_discarded_total", "Sidecar files discarded as corrupt or stale.",
		func(s nodb.Stats) int64 { return s.Sidecar.CorruptDiscarded })
	counter("nodb_engine_sidecar_journal_records_total", "Append-journal records written after INSERTs.",
		func(s nodb.Stats) int64 { return s.Sidecar.JournalRecords })
}
