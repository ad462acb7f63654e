package format

import (
	"context"
	"runtime"
	"sync/atomic"

	"nodb/internal/chunkdir"
	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/iofault"
	"nodb/internal/posmap"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
	"nodb/internal/stats"
)

// State is the shared adaptive-structure state of one raw table — the part
// of a format adapter that is the same for every format: the chunk
// directory holding the positional map, the binary value cache and the
// column synopses, the statistics published from them, the known row
// count, instrumentation counters, and the per-table lock that mediates
// them.
// Format adapters embed a *State and add their format-specific scans; the
// methods here implement most of the Source interface.
//
// Concurrency: scans that record into the structures hold Lk exclusively
// for their lifetime; fully cached read-only scans hold it shared and run
// in parallel. Statistics carry their own internal lock, the row count and
// cumulative counters are atomics. FileSize changes only under the
// exclusive hold.
type State struct {
	Tbl *schema.Table
	Env Env
	Lk  *TableLock

	// Dir is the table's one directory of (column, chunk) slots: tuple
	// starts, map positions and cached values, plus one synopsis per
	// column. Invalidation (Dir.Drop), the shard merge (Dir.Absorb) and
	// the sidecar go through it whole; PM and Cache are the views scans
	// record and read through.
	Dir         *chunkdir.Dir
	PM          *posmap.Map     // view of Dir; nil unless Env.PosMap
	RecordAttrs bool            // Env.AttrPointers (false: tuple starts only)
	Cache       *colcache.Cache // view of Dir; nil unless Env.Cache
	// St is what the planner reads of Dir's synopses (publishStats); nil
	// unless Env.Statistics, and in partition-worker shards.
	St *stats.Table

	Types []datum.Type

	Rows     atomic.Int64 // -1 until the first complete scan
	FileSize int64        // size observed at last refresh (guarded by Lk exclusive)
	FP       Fingerprint  // file version the structures were built from (guarded by Lk exclusive)

	// ColAccess counts how many scans needed each column — the workload
	// signal the sidecar checkpointer uses to pick which cached columns are
	// worth persisting first under its byte budget (workload-driven
	// vertical partitioning). Incremented once per scan per needed column,
	// never on the per-tuple hot path.
	ColAccess []atomic.Int64

	Counters Counters
}

// NewState builds the adaptive structures the environment asks for.
// Adapters that have no use for a structure (FITS needs no positional map)
// zero the corresponding Env switches before calling.
func NewState(tbl *schema.Table, env Env) *State {
	st := &State{Tbl: tbl, Env: env, Lk: NewTableLock()}
	st.Rows.Store(-1)
	st.Types = make([]datum.Type, tbl.NumColumns())
	for i, c := range tbl.Columns {
		st.Types[i] = c.Type
	}
	st.views(chunkdir.New(tbl.NumColumns(), env.PMBudget, env.CacheBudget))
	if env.Statistics {
		st.St = stats.NewTable()
	}
	st.ColAccess = make([]atomic.Int64, tbl.NumColumns())
	if env.Sidecar != nil {
		// Reload a persisted checkpoint before the state is shared. The
		// exclusive hold is uncontended here (the lock was just created);
		// taking it keeps the loader's locking contract uniform.
		if err := st.Lk.Lock(context.Background()); err == nil {
			env.Sidecar.LoadLocked(st)
			st.publishStats(true)
			st.Lk.Unlock()
		}
	}
	return st
}

// views installs d as st's directory with the map and cache views the
// environment asks for.
func (st *State) views(d *chunkdir.Dir) {
	st.Dir = d
	if st.Env.PosMap {
		st.PM = posmap.Of(d)
		st.RecordAttrs = st.Env.AttrPointers
	}
	if st.Env.Cache {
		st.Cache = colcache.Of(d)
	}
}

// Shard returns a private view of the table for one partition worker: the
// same schema and environment, but a fresh unbudgeted directory and
// counters, so nothing on the worker's per-tuple hot path is shared. The
// parallel scan absorbs shards back when the pass completes; the shared
// budgets apply then, and the parent publishes the merged statistics.
func (st *State) Shard() *State {
	sh := &State{Tbl: st.Tbl, Env: st.Env, Lk: NewTableLock(), Types: st.Types}
	sh.Env.Sidecar = nil // shards are scan-private; only the parent persists
	sh.Rows.Store(-1)
	sh.views(chunkdir.New(st.Tbl.NumColumns(), 0, 0))
	return sh
}

// Table implements Source.
func (st *State) Table() *schema.Table { return st.Tbl }

// Stats implements Source.
func (st *State) Stats() *stats.Table { return st.St }

// RowCount implements Source.
func (st *State) RowCount() int64 { return st.Rows.Load() }

// BatchSize is the vectorized batch height for this table's scans.
func (st *State) BatchSize() int {
	if st.Env.BatchSize > 0 {
		return st.Env.BatchSize
	}
	return exec.DefaultBatchSize
}

// ScanWorkers decides how many partition workers the next raw-file pass
// may use. Parallel partitioning requires a cold table: once the
// positional map or cache hold content, the sequential pass exploits them
// (nearest-neighbor navigation, per-value cache hits) and owns them
// without synchronization, so warm scans stay single-threaded. Budgeted
// configurations also stay sequential: worker shards are unbounded until
// they merge, which the memory caps could not respect.
func (st *State) ScanWorkers() int {
	n := st.Env.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 2 {
		return 1
	}
	if st.Env.PMBudget > 0 || st.Env.CacheBudget > 0 {
		return 1
	}
	if st.Dir.NumTuples() > 0 || st.Dir.MapBytes() > 0 || st.Dir.CacheBytes() > 0 {
		return 1
	}
	return n
}

// CacheCovers reports whether every needed column is fully cached for all
// known rows. Callers must hold Lk.
func (st *State) CacheCovers(needed []int) bool {
	rows := st.Rows.Load()
	if st.Cache == nil || rows < 0 {
		return false
	}
	for _, c := range needed {
		if !st.Cache.FullyCovers(c, int(rows)) {
			return false
		}
	}
	return true
}

// FileUnchanged reports whether the backing file still matches the
// fingerprint the last refresh captured — the precondition for serving a
// query without the exclusive reconciliation pass. Size+mtime only (no
// reads): the full content check runs under the exclusive hold in
// Refresh. Callers must hold Lk (shared is enough: the fingerprint only
// changes under the exclusive hold).
func (st *State) FileUnchanged() bool {
	if st.FP.Zero() {
		return false
	}
	fi, err := iofault.Stat(st.Tbl.Path)
	return err == nil && fi.Size() == st.FP.Size && fi.ModTime().Equal(st.FP.ModTime)
}

// Refresh fingerprints the backing file and reconciles auxiliary
// structures with external changes: a pure append keeps the prefix
// structures and only forgets the row count; a truncation, rewrite, or
// in-place edit drops everything (paper §4.5) so the scan that follows
// rebuilds from the current bytes. This is the row-oriented default;
// formats with self-describing headers (FITS) install their own refresh
// through ScanPlan. Callers must hold Lk exclusively.
func (st *State) Refresh() error {
	if st.FP.Zero() || st.FileSize == 0 {
		fp, err := TakeFingerprint(st.Tbl.Path)
		if err != nil {
			return WrapFileErr(st.Tbl.Name, err)
		}
		st.FP = fp
		st.FileSize = fp.Size
		return nil
	}
	change, next, err := st.FP.Check(st.Tbl.Path)
	if err != nil {
		// Can't tell what the file is now; nothing built from the old
		// version can be trusted.
		st.InvalidateLocked()
		return WrapFileErr(st.Tbl.Name, err)
	}
	switch change {
	case FileSame:
	case FileAppended:
		// Append: row count becomes unknown; prefix structures stay.
		st.Rows.Store(-1)
	case FileReplaced:
		st.InvalidateLocked()
	}
	st.FP = next
	st.FileSize = next.Size
	return nil
}

// publishStats folds each column synopsis into the planner's statistics
// (Synopsis.Finalize, memoized until the synopsis changes), together with
// the row count of the last complete pass. A column's statistics show
// once its synopsis covers that many rows, and stay as it grows: an
// append never hides them. all shows every synopsis, covering or not: a
// sidecar keeps only those that showed. Callers hold Lk exclusively.
func (st *State) publishStats(all bool) {
	t := st.St
	if t == nil {
		return
	}
	if n := st.Rows.Load(); n >= 0 {
		t.SetRowCount(n)
	}
	rows := t.RowCount()
	for col := range st.Types {
		if syn := st.Dir.Synopsis(col); syn != nil && (all || t.Has(col) || rows > 0 && syn.Rows() >= rows) {
			t.Set(col, syn.Finalize())
		}
	}
}

// InvalidateLocked drops every auxiliary structure. Callers must hold Lk
// exclusively.
func (st *State) InvalidateLocked() {
	st.Dir.Drop()
	if st.St != nil {
		st.St.Drop()
	}
	st.Rows.Store(-1)
	st.FileSize = 0
	st.FP = Fingerprint{}
}

// Invalidate implements Source: it waits for scans of the table in flight,
// then drops all auxiliary state.
func (st *State) Invalidate() {
	if err := st.Lk.Lock(context.Background()); err == nil {
		st.InvalidateLocked()
		st.Lk.Unlock()
	}
}

// Metrics implements Source. It takes the table lock shared, so it waits
// for a recording scan in progress (counters flush at scan close) and
// returns a consistent picture.
func (st *State) Metrics() Metrics {
	if err := st.Lk.RLock(context.Background()); err == nil {
		defer st.Lk.RUnlock()
	}
	m := st.StatsLite()
	if st.PM != nil {
		pm := st.PM.Metrics()
		m.PMPointers = pm.Pointers
		m.PMBytes = st.PM.MemoryBytes()
		m.PMEvictions = pm.Evictions
	}
	if st.Cache != nil {
		m.CacheBytes = st.Cache.Bytes()
		m.CacheUsage = st.Cache.Usage()
	}
	if st.St != nil {
		m.StatsColumns = st.St.CoveredColumns()
	}
	return m
}

// StatsLite implements Source: the atomically maintained subset of
// Metrics, read WITHOUT the table lock, so observability scrapes never
// wait behind a recording scan in flight. Positional-map and cache sizes
// (owned by the exclusive hold) are omitted, and per-tuple counters of a
// scan still running are not yet included — the numbers trail in-flight
// work by one scan, which is the right trade for a non-blocking scrape.
func (st *State) StatsLite() Metrics {
	c := st.Counters.Load()
	return Metrics{Rows: st.Rows.Load(), ScanTotals: qtrace.Totals(&c)}
}

// ScanPlan supplies a format's access methods to NewScan. Seq builds the
// sequential recording pass; Par (optional) builds the partitioned
// parallel pass for a cold table; Refresh (optional) overrides the
// row-oriented State.Refresh reconciliation.
type ScanPlan struct {
	Seq     func(ctx context.Context) exec.Operator
	Par     func(ctx context.Context, workers int) exec.Operator
	Refresh func() error
}

// NewScan assembles the standard access-method decision shared by every
// format, as a GuardedScan leaf:
//
//   - read-only cache scan under a shared hold when the unbudgeted cache
//     already covers the query (warm traffic runs in parallel),
//   - otherwise, under the exclusive hold: refresh, re-check the cache
//     (downgrading when it covers), then a parallel partitioned pass on a
//     cold table or the format's sequential recording pass.
func (st *State) NewScan(ctx context.Context, outCols []int, conjuncts []expr.Expr, plan ScanPlan) *GuardedScan {
	cols := OutputSchema(st.Tbl, outCols)
	needed := NeededColumns(outCols, conjuncts)
	for _, c := range needed {
		if c >= 0 && c < len(st.ColAccess) {
			st.ColAccess[c].Add(1)
		}
	}

	prof := qtrace.FromContext(ctx)
	var shared func() (exec.Operator, error)
	if st.Cache != nil && st.Env.CacheBudget <= 0 {
		shared = func() (exec.Operator, error) {
			if st.FileUnchanged() && st.CacheCovers(needed) {
				st.Counters.Count(prof, qtrace.CtrWarmScans, 1)
				return NewCacheScan(ctx, st, outCols, conjuncts, true), nil
			}
			return nil, nil
		}
	}
	refresh := plan.Refresh
	if refresh == nil {
		refresh = st.Refresh
	}
	exclusive := func() (exec.Operator, bool, error) {
		if err := refresh(); err != nil {
			return nil, false, err
		}
		if st.CacheCovers(needed) {
			// An unbudgeted cache never evicts, so the scan mutates nothing
			// shared: downgrade to a shared hold and let cache readers run
			// in parallel. (With a budget, reads churn the LRU and may
			// create entries, so the scan keeps the exclusive hold.)
			readonly := st.Env.CacheBudget <= 0
			st.Counters.Count(prof, qtrace.CtrWarmScans, 1)
			return NewCacheScan(ctx, st, outCols, conjuncts, readonly), readonly, nil
		}
		st.Counters.Count(prof, qtrace.CtrColdScans, 1)
		if w := st.ScanWorkers(); w > 1 && plan.Par != nil {
			return plan.Par(ctx, w), false, nil
		}
		return plan.Seq(ctx), false, nil
	}
	gs := NewGuardedScan(ctx, st.Lk, cols, shared, exclusive)
	retries, backoff := st.Env.RetryBudget()
	gs.SetRetry(retries, backoff, st.InvalidateLocked, &st.Counters)
	// A recording scan may have extended the adaptive structures: publish
	// the statistics before the exclusive hold ends and schedule a
	// (debounced) checkpoint.
	gs.OnRecorded(func() {
		st.publishStats(false)
		if mgr := st.Env.Sidecar; mgr != nil {
			mgr.MarkDirty(st)
		}
	})
	return gs
}
