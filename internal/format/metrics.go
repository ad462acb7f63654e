package format

import (
	"sync/atomic"

	"nodb/internal/qtrace"
)

// Metrics reports the auxiliary-structure state of a raw table, used by
// the benchmark harness and tests (cache usage, positional-map pointers),
// and the table's scan counters, derived from the qtrace definitions.
// Fields are zero for structures a format does not keep.
type Metrics struct {
	Rows         int64
	PMPointers   int64
	PMBytes      int64
	PMEvictions  int64
	CacheBytes   int64
	CacheUsage   float64
	StatsColumns int
	qtrace.ScanTotals
}

// Counters are a table's cumulative scan counters, indexed by
// qtrace.Counter (table-scope entries only), safe for concurrent use.
// Scans count into a private qtrace.Counts on the hot path and Flush it
// once, at Close; access-method decisions and retries Count directly.
type Counters [qtrace.NumCounters]atomic.Int64

// Flush publishes a scan's private counts to the query profile (nil when
// the query is not profiled) and to the table, then zeroes them. Each scan
// (or parallel worker shard) flushes exactly once, so profiles merge across
// workers without double counting.
func (tc *Counters) Flush(prof *qtrace.Profile, c *qtrace.Counts) {
	for i, n := range c {
		if n != 0 {
			tc[i].Add(n)
			prof.Count(qtrace.Counter(i), n)
		}
	}
	*c = qtrace.Counts{}
}

// Count records n of a decision-time counter (a scan's access method, a
// retry) in the query profile and the table.
func (tc *Counters) Count(prof *qtrace.Profile, ctr qtrace.Counter, n int64) {
	tc[ctr].Add(n)
	prof.Count(ctr, n)
}

// Load reads the cumulative totals.
func (tc *Counters) Load() qtrace.Counts {
	var c qtrace.Counts
	for i := range tc {
		c[i] = tc[i].Load()
	}
	return c
}
