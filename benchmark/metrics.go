package main

import (
	"fmt"
	"runtime"
)

// perLayerMetrics lists every per-layer metric with its unit, in report
// order. A traced run prints all of them whatever its workload: a layer the
// workload does not exercise reports 0 for its workload-derived numbers
// (counts, ratios, shares); the layer drivers' numbers are always measured.
// BENCHMARK.json repeats these names; the test keeps the two in step.
var perLayerMetrics = []struct{ name, unit string }{
	// scan: the tokenizer and the chunked line reader (layer drivers).
	{"scan.linereader_mb_per_s", "MB/s"},
	{"scan.tokenize_full_ns_per_tuple", "ns"},
	{"scan.tokenize_prefix_ns_per_tuple", "ns"},
	{"scan.skipforward_ns_per_field", "ns"},
	{"scan.split_us", "us"},
	// datum: ASCII to binary conversion (layer drivers).
	{"datum.parsebytes_int_ns", "ns"},
	{"datum.parsebytes_float_ns", "ns"},
	{"datum.parsebytes_date_ns", "ns"},
	// posmap: the positional map. Evictions and the map's share of field
	// lookups are the workload's.
	{"posmap.record_ns_per_ptr", "ns"},
	{"posmap.cursor_get_ns", "ns"},
	{"posmap.nearest_ns", "ns"},
	{"posmap.bytes_per_ptr", "B"},
	{"posmap.evictions", "count"},
	{"posmap.fields_from_map_ratio", "ratio"},
	// colcache: the binary column cache. The hit ratio is the workload's.
	{"colcache.put_ns_per_value", "ns"},
	{"colcache.getbatch_ns_per_value", "ns"},
	{"colcache.absorb_ms", "ms"},
	{"colcache.bytes_per_value", "B"},
	{"colcache.hit_ratio", "ratio"},
	// stats: on-the-fly statistics.
	{"stats.collector_add_ns_per_value", "ns"},
	// sqlparse, plan, core: the front end of a statement (layer drivers),
	// and the engine's own counters over the workload.
	{"sqlparse.parse_us_per_stmt", "us"},
	{"sqlparse.normalize_us_per_stmt", "us"},
	{"plan.skeleton_build_us", "us"},
	{"plan.bind_us", "us"},
	{"core.prepare_hit_us", "us"},
	{"core.stmtcache_hit_ratio", "ratio"},
	{"core.cold_scans", "count"},
	{"core.warm_scans", "count"},
	{"core.tuples_parsed", "count"},
	{"core.fields_parsed_per_row_out", "ratio"},
	{"core.workers", "count"},
	// expr, kernel: one predicate through both filter paths (drivers); the
	// kernel cache and batch split are the workload's.
	{"expr.filterbatch_ns_per_row", "ns"},
	{"kernel.filter_ns_per_row", "ns"},
	{"kernel.cache_hit_ratio", "ratio"},
	{"kernel.batch_share", "ratio"},
	// exec: per-query medians on a small cached TPC-H instance, and the
	// row operators over in-memory rows (layer drivers).
	{"exec.tpch_q1_ms", "ms"},
	{"exec.tpch_q3_ms", "ms"},
	{"exec.tpch_q4_ms", "ms"},
	{"exec.tpch_q6_ms", "ms"},
	{"exec.tpch_q10_ms", "ms"},
	{"exec.tpch_q12_ms", "ms"},
	{"exec.tpch_q14_ms", "ms"},
	{"exec.tpch_q19_ms", "ms"},
	{"exec.filter_project_ms", "ms"},
	{"exec.hashagg_ns_per_row", "ns"},
	{"exec.hashjoin_ns_per_probe_row", "ns"},
	{"exec.sort_ns_per_row", "ns"},
	// format: table locks (workload), the cache scan and the fingerprint
	// check every query pays (drivers).
	{"format.lock_wait_ms_total", "ms"},
	{"format.cachescan_ns_per_row", "ns"},
	{"format.fingerprint_check_us", "us"},
	// jsonl, fits: no workload reads these formats; they guard changes to
	// the machinery the adapters share.
	{"jsonl.cold_scan_mb_per_s", "MB/s"},
	{"jsonl.warm_query_ms", "ms"},
	{"fits.cold_scan_mb_per_s", "MB/s"},
	{"fits.warm_query_ms", "ms"},
	// sidecar: read and write paths (drivers) and the workload's counters.
	{"sidecar.load_ms", "ms"},
	{"sidecar.checkpoint_ms", "ms"},
	{"sidecar.bytes_per_raw_byte", "ratio"},
	{"sidecar.bytes", "B"},
	{"sidecar.checkpoints", "count"},
	{"sidecar.discards", "count"},
	{"sidecar.restart_tuples_parsed", "count"},
	// server: the handler alone (driver) and served_mix's own account.
	{"server.handler_us_p50", "us"},
	{"server.latency_ms_p99", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.rejects", "count"},
	{"server.ndjson_bytes_per_row", "B"},
	{"server.session_stmt_hit_ratio", "ratio"},
	{"server.generator_late_ms_p99", "ms"},
	{"server.inserts_acked", "count"},
	// driver: the database/sql path.
	{"driver.query_overhead_us", "us"},
	// go: the runtime's account of the traced window.
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.rss_hwm_mb", "MB"},
	// trace: cost of tracing itself, traced against untraced ops_per_s.
	{"trace.overhead_pct", "%"},
	// share: where operation time went, from the engine's per-query
	// profiles taken at the boundaries the benchmark sees.
	{"share.frontend_pct", "%"},
	{"share.queue_pct", "%"},
	{"share.plan_bind_pct", "%"},
	{"share.raw_scan_pct", "%"},
	{"share.cache_scan_pct", "%"},
	{"share.lock_wait_pct", "%"},
	{"share.exec_pct", "%"},
	// op: self time of the benchmark's own spans, as shares of op time.
	{"op.open_self_pct", "%"},
	{"op.query_self_pct", "%"},
	{"op.drain_self_pct", "%"},
	{"op.close_self_pct", "%"},
	{"op.checkpoint_self_pct", "%"},
	{"op.http_self_pct", "%"},
	{"op.harness_self_pct", "%"},
}

// metricSet is the per-layer result under construction. Every name is
// present from the start, and set refuses names that are not declared, so
// what a traced run prints cannot drift from perLayerMetrics.
type metricSet map[string]metric

func newMetricSet() metricSet {
	ms := metricSet{}
	for _, m := range perLayerMetrics {
		ms[m.name] = metric{Unit: m.unit}
	}
	return ms
}

func (ms metricSet) set(name string, v float64) {
	m, ok := ms[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: per-layer metric %q is not declared in perLayerMetrics", name))
	}
	m.Value = v
	ms[name] = m
}

// perLayer assembles the traced run's metrics: the workload's counters and
// shares, then the layer drivers.
func perLayer(cfg *runConfig, dir string, st, ref *opStats, tr *tracer, end endState,
	before, after *runtime.MemStats) (map[string]metric, error) {
	ms := newMetricSet()
	e, p := &st.eng, &st.prof

	ms.set("posmap.evictions", float64(e.pmEvictions))
	ms.set("posmap.fields_from_map_ratio", ratio(float64(e.fieldsFromMap), float64(e.fieldsFromMap+e.fromScan)))
	ms.set("colcache.hit_ratio", ratio(float64(e.cacheHits), float64(e.cacheHits+e.cacheMisses)))
	ms.set("core.stmtcache_hit_ratio", ratio(float64(e.stmtHits), float64(e.stmtHits+e.stmtMisses)))
	ms.set("core.cold_scans", float64(e.coldScans))
	ms.set("core.warm_scans", float64(e.warmScans))
	ms.set("core.tuples_parsed", float64(e.tuplesParsed))
	ms.set("core.fields_parsed_per_row_out", ratio(float64(e.fieldsParsed), float64(st.rowsOut)))
	ms.set("core.workers", ratio(float64(p.workers), float64(p.queries)))
	ms.set("kernel.cache_hit_ratio", ratio(float64(e.kernelHits), float64(e.kernelHits+e.kernelMisses)))
	ms.set("kernel.batch_share", ratio(float64(p.kernelBatches), float64(p.kernelBatches+p.genericBatches)))
	ms.set("format.lock_wait_ms_total", float64(p.lockWait)/1e6)
	ms.set("sidecar.checkpoints", float64(e.checkpoints))
	ms.set("sidecar.discards", float64(e.discards))
	if cfg.workload == "restart_warm" {
		ms.set("sidecar.restart_tuples_parsed", float64(e.tuplesParsed))
	}
	ms.set("server.queue_wait_ms_p90", quantileOrZero(p.queueWaits, 0.9))
	for name, v := range end.extra {
		ms.set(name, v)
	}

	ops := float64(st.attempted)
	ms.set("go.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops)
	ms.set("go.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	ms.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
	ms.set("go.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)

	untraced := float64(ref.ops) / ref.wall.Seconds()
	traced := float64(st.ops) / st.wall.Seconds()
	ms.set("trace.overhead_pct", 100*(1-ratio(traced, untraced)))

	// Layer shares of operation time. The engine's profile accounts for
	// queue, plan, bind and execute; what is left of the operation is the
	// front end (server, HTTP, NDJSON, statement parse and cache, open and
	// close, sidecar load). Execute splits into the scans, lock waits and
	// the operators above them.
	base := float64(st.opNS)
	pct := func(ns int64) float64 { return 100 * ratio(float64(ns), base) }
	ms.set("share.queue_pct", pct(p.queue))
	ms.set("share.plan_bind_pct", pct(p.plan+p.bind))
	ms.set("share.raw_scan_pct", pct(p.rawScan))
	ms.set("share.cache_scan_pct", pct(p.cacheScan))
	ms.set("share.lock_wait_pct", pct(p.lockWait))
	ms.set("share.exec_pct", pct(p.execute-p.rawScan-p.cacheScan-p.lockWait))
	ms.set("share.frontend_pct", pct(st.opNS-p.queue-p.plan-p.bind-p.execute))

	self := tr.selfTimes()
	var spanTotal int64
	for _, ns := range self {
		spanTotal += ns
	}
	for span, name := range map[string]string{
		"open": "op.open_self_pct", "query": "op.query_self_pct", "drain": "op.drain_self_pct",
		"close": "op.close_self_pct", "checkpoint": "op.checkpoint_self_pct",
		"http": "op.http_self_pct", "op": "op.harness_self_pct",
	} {
		ms.set(name, 100*ratio(float64(self[span]), float64(spanTotal)))
	}

	if err := layerDrivers(cfg, dir, ms); err != nil {
		return nil, fmt.Errorf("layer drivers: %w", err)
	}
	return ms, nil
}

func quantileOrZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
