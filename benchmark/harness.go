package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodb"
)

// runConfig is one invocation: one workload, one seed, one measured window.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workdir  string // parent of the per-run scratch directory
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow page-cache writeback does not decide the metric.
const setupReps = 3

// runner is one of the five workloads. The harness calls prepare
// setupReps times (release in between), then expect once, measure once or
// twice (traced runs measure an untraced reference window first), then
// finish and release.
type runner interface {
	// prepare generates the inputs under dir from the seed and brings the
	// engine to the workload's start state. Its duration is setup_s.
	prepare(dir string) error
	// release drops the state prepare built; the files stay.
	release() error
	// expect computes the reference answers every measured result is
	// compared against. Untimed.
	expect() error
	// measure runs operations for about d, recording into st. tr is nil
	// when tracing is off.
	measure(d time.Duration, tr *tracer, st *opStats) error
	// finish runs the closing checks and write probe and reports the
	// end state of the adaptive structures.
	finish(st *opStats) (endState, error)
}

// endState is what the workload's table looked like when measuring ended.
type endState struct {
	auxBytes int64 // positional map + binary cache
	rawBytes int64 // raw file(s) the workload queries
	extra    map[string]float64
}

// engineTotals accumulates engine counters over every DB a workload opened
// (cold_first_query opens one per operation).
type engineTotals struct {
	stmtHits, stmtMisses       int64
	kernelHits, kernelMisses   int64
	coldScans, warmScans       int64
	tuplesParsed, fieldsParsed int64
	fieldsFromMap, fromScan    int64
	cacheHits, cacheMisses     int64
	pmEvictions                int64
	checkpoints, discards      int64
}

func (e *engineTotals) add(s nodb.Stats, sign int64) {
	e.stmtHits += sign * s.StmtCache.Hits
	e.stmtMisses += sign * s.StmtCache.Misses
	e.kernelHits += sign * s.KernelCache.Hits
	e.kernelMisses += sign * s.KernelCache.Misses
	e.coldScans += sign * s.ColdScans
	e.warmScans += sign * s.WarmScans
	e.tuplesParsed += sign * s.TuplesParsed
	e.fieldsParsed += sign * s.FieldsParsed
	e.fieldsFromMap += sign * s.FieldsFromMap
	e.fromScan += sign * s.FieldsFromScan
	e.cacheHits += sign * s.CacheHits
	e.cacheMisses += sign * s.CacheMisses
	e.checkpoints += sign * s.Sidecar.Checkpoints
	e.discards += sign * s.Sidecar.CorruptDiscarded
}

// profileTotals sums the per-query execution profiles of a traced window
// (nodb.WithProfile / ?profile=1): the engine's own account of where a
// query's time went, taken at the boundaries the benchmark can see.
type profileTotals struct {
	queries                       int64
	queue, plan, bind, execute    int64 // ns
	lockWait, rawScan, cacheScan  int64 // ns, nested inside execute
	workers                       int64
	kernelBatches, genericBatches int64
	queueWaits                    []float64 // ms, one per profiled query
}

func (p *profileTotals) add(s *nodb.Profile) {
	if s == nil {
		return
	}
	p.queries++
	p.queue += s.Phases.QueueNS
	p.plan += s.Phases.PlanNS
	p.bind += s.Phases.BindNS
	p.execute += s.Phases.ExecuteNS
	p.lockWait += s.Phases.LockWaitNS
	p.rawScan += s.Phases.RawScanNS
	p.cacheScan += s.Phases.CacheScanNS
	p.workers += s.Ctrs.Workers
	p.kernelBatches += s.Ctrs.KernelBatches
	p.genericBatches += s.Ctrs.GenericBatches
	p.queueWaits = append(p.queueWaits, float64(s.Phases.QueueNS)/1e6)
}

// opStats is what one measured window produced. Workloads that run
// operations from several goroutines (served_mix) take mu.
type opStats struct {
	mu sync.Mutex

	lat   []float64 // ms per operation
	first []float64 // ms from operation start to its first result row
	write []float64 // ms per write-side operation

	ops       int // operations completed, the numerator of ops_per_s
	attempted int
	failed    int
	wall      time.Duration // the window ops were completed in
	opNS      int64         // summed operation time (the base of layer shares)
	rowsOut   int64

	eng  engineTotals
	prof profileTotals

	// chunk is how many consecutive samples form one slice of the window
	// (0 = a fifth of the samples); see sliced.
	chunk int

	nextOp int32
	notes  []string // first few failures, for the report
	info   []string // workload-specific report lines
}

func (st *opStats) newOp() int32 {
	st.nextOp++
	return st.nextOp
}

func (st *opStats) fail(format string, args ...any) {
	st.failed++
	if len(st.notes) < 5 {
		st.notes = append(st.notes, fmt.Sprintf(format, args...))
	}
}

// record books one finished operation. A non-empty why counts it as failed;
// its latency still enters the sample (a failed request is not a fast one).
func (st *opStats) record(lat, first time.Duration, rows int64, why string) {
	st.attempted++
	st.ops++
	st.opNS += int64(lat)
	st.rowsOut += rows
	st.lat = append(st.lat, float64(lat)/1e6)
	st.first = append(st.first, float64(first)/1e6)
	if why != "" {
		st.fail("%s", why)
	}
}

// sliced returns the q-quantile of xs taken slice by slice: xs is cut, in
// arrival order, into consecutive chunks, the quantile is taken within each
// chunk, and the median over the chunks is reported. A disturbance of the
// machine that lasts a fraction of the window then moves one or two chunks,
// not the reported value, which a quantile over the whole window would not
// survive at q = 0.9.
func sliced(xs []float64, chunk int, q float64) float64 {
	if chunk <= 0 {
		chunk = (len(xs) + 4) / 5
	}
	if chunk < 20 || len(xs) < 2*chunk {
		return quantile(xs, q)
	}
	var per []float64
	for lo := 0; lo+chunk <= len(xs); lo += chunk {
		per = append(per, quantile(xs[lo:lo+chunk], q))
	}
	return median(per)
}

// runQuery executes one SELECT through the public cursor API inside the
// operation opID, recording the query and drain boundaries as spans and —
// when tracing — the engine's execution profile. start is when the
// enclosing operation began (first-row time counts from there).
func runQuery(db *nodb.DB, tr *tracer, parent, opID int32, st *opStats, start time.Time, sql string, args ...any) (digest, time.Duration, error) {
	ctx := context.Background()
	if tr != nil {
		ctx = nodb.WithProfile(ctx)
	}
	s := tr.begin("query", parent, opID)
	rows, err := db.QueryContext(ctx, sql, args...)
	tr.end(s)
	if err != nil {
		return digest{}, 0, err
	}
	s = tr.begin("drain", parent, opID)
	d, first, err := drainDigest(rows, start)
	tr.end(s)
	if tr != nil {
		st.prof.add(rows.Profile())
	}
	return d, first, err
}

// appendProbe measures the write path of a read-only workload: n single-row
// INSERT statements appended to table through the public Exec API, against
// the adaptive state the workload left behind. The raw file is the only
// store, so this is the whole cost of a durable write as the engine
// defines it.
func appendProbe(db *nodb.DB, st *opStats, n int, stmt func(i int) string) error {
	for i := 0; i < n; i++ {
		sql := stmt(i)
		t0 := time.Now()
		if _, err := db.ExecContext(context.Background(), sql); err != nil {
			return fmt.Errorf("append probe: %w", err)
		}
		st.write = append(st.write, float64(time.Since(t0))/1e6)
	}
	return nil
}

// procStatus reads one kB-valued field of /proc/self/status.
func procStatus(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the system and asks the kernel to
// restart the VmHWM high-water mark, so the memory numbers cover the
// measured window and not data generation. Where the kernel refuses, the
// mark simply covers the whole process — the same on every run in that
// environment.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssSampler polls the resident set size every 5 ms while a window is
// measured. rss_mb_p99 is the 99th percentile of its samples: the level the
// process stays under 99 % of the time. The kernel's high-water mark
// (VmHWM, reported per layer as go.rss_hwm_mb) is a single extreme value
// that depends on where one garbage collection happened to start, and
// varies several times as much from run to run.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				raw, err := os.ReadFile("/proc/self/statm")
				if err != nil {
					return
				}
				f := strings.Fields(string(raw))
				if len(f) > 1 {
					pages, _ := strconv.ParseFloat(f[1], 64)
					r.samples = append(r.samples, pages*float64(os.Getpagesize())/(1<<20))
				}
			}
		}
	}()
	return r
}

func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}

func peakRSSMB() float64 { return procStatus("VmHWM") / 1024 }

// pinProcs fixes GOMAXPROCS at min(nproc, 4), the setting every number of
// this benchmark is reported at.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// runDir creates the per-run scratch directory under workdir.
func runDir(cfg *runConfig) (string, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
