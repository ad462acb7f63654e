package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nodb"
	"nodb/internal/workload"
)

// restartWorkload is restart_warm: set-up warms eight columns of wide.csv
// with sidecar persistence on and checkpoints; every operation is a process
// restart in miniature — open an engine that finds the sidecar, run its
// first query, close. Every fourth operation is the write side instead:
// invalidate, re-scan (recording), and a timed checkpoint. The first query
// after a restart must parse no tuple.
type restartWorkload struct {
	cfg     *runConfig
	rows    int
	path    string
	auxDir  string
	cols    []int // the eight warmed attributes
	warmSQL string
	queries []*wideQuery
	next    int
	last    nodb.Metrics
}

const (
	restartWarmCols   = 8
	restartQueryPool  = 8
	restartWriteEvery = 4
)

func newRestartWorkload(cfg *runConfig) *restartWorkload {
	w := &restartWorkload{cfg: cfg, rows: cfg.scale.restartRows}
	// The warmed columns are fixed — every sixth attribute — so the sidecar
	// holds the same structures on every run; the seed picks the filter
	// bounds and, through the generator, every value in the file.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x72657374))
	names := make([]string, restartWarmCols)
	for i := range names {
		w.cols = append(w.cols, (3+6*i)*cfg.scale.wideAttrs/50)
		names[i] = workload.AttrName(w.cols[i])
	}
	// No filter: a filtered scan would cache the projected columns only
	// for qualifying rows.
	w.warmSQL = "SELECT " + strings.Join(names, ", ") + " FROM wide"
	for i := 0; i < restartQueryPool; i++ {
		col := func(k int) int { return w.cols[(i+k)%restartWarmCols] }
		bound := int64(workload.MaxValue/2) + rng.Int63n(workload.MaxValue/10) - workload.MaxValue/20
		w.queries = append(w.queries, newWideQuery([]int{col(0), col(1), col(2)}, col(3), bound))
	}
	return w
}

func (w *restartWorkload) open() (*nodb.DB, error) {
	cat, err := wideCatalog(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return nil, err
	}
	return nodb.Open(cat, nodb.Options{Sidecar: nodb.SidecarOptions{Enable: true, Dir: w.auxDir}})
}

func (w *restartWorkload) prepare(dir string) error {
	w.path = filepath.Join(dir, "wide.csv")
	w.auxDir = filepath.Join(dir, "aux")
	if err := workload.GenerateWide(w.path, w.rows, w.cfg.scale.wideAttrs, w.cfg.seed); err != nil {
		return err
	}
	db, err := w.open()
	if err != nil {
		return err
	}
	if _, err := queryDigest(db, w.warmSQL); err != nil {
		db.Close()
		return err
	}
	if err := db.Checkpoint(context.Background()); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (w *restartWorkload) release() error { return nil }

func (w *restartWorkload) expect() error {
	cols, err := wideColumns(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return err
	}
	for _, q := range w.queries {
		q.expect(cols)
	}
	return nil
}

func (w *restartWorkload) measure(d time.Duration, tr *tracer, st *opStats) error {
	begin := time.Now()
	for n := 1; time.Since(begin) < d; n++ {
		op := st.newOp()
		if n%restartWriteEvery == 0 {
			if err := w.writeCycle(tr, op, st); err != nil {
				return err
			}
			continue
		}
		q := w.queries[w.next%len(w.queries)]
		w.next++
		t0 := time.Now()
		root := tr.begin("op", 0, op)
		s := tr.begin("open", root, op)
		db, err := w.open()
		tr.end(s)
		if err != nil {
			return err
		}
		got, first, qerr := runQuery(db, tr, root, op, st, t0, q.sql)
		stats := db.Stats()
		st.eng.add(stats, +1)
		w.last = db.Metrics("wide")
		s = tr.begin("close", root, op)
		cerr := db.Close()
		tr.end(s)
		tr.end(root)

		why := q.verdict(got, qerr, cerr)
		if why == "" && stats.TuplesParsed != 0 {
			why = fmt.Sprintf("first query after restart parsed %d tuples; the sidecar did not warm-start it", stats.TuplesParsed)
		}
		st.record(time.Since(t0), first, got.Rows, why)
	}
	st.wall += time.Since(begin)
	return nil
}

// writeCycle is the write side of the sidecar: drop the adaptive state,
// rebuild it with a recording scan, and time the checkpoint that persists
// it. The cycle counts as one completed operation; only the checkpoint
// enters write_ms_p50. It carries the same open, query and close spans as a
// restart, so its engine work is not booked as the harness's own time.
func (w *restartWorkload) writeCycle(tr *tracer, op int32, st *opStats) error {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	s := tr.begin("open", root, op)
	db, err := w.open()
	tr.end(s)
	if err != nil {
		return err
	}
	// Invalidate acts on tables the engine has touched, so touch it first
	// (which loads the sidecar), then drop everything and rebuild.
	s = tr.begin("query", root, op)
	if _, err = queryDigest(db, w.queries[0].sql); err == nil {
		db.Invalidate("wide")
		_, err = queryDigest(db, w.warmSQL)
	}
	tr.end(s)
	if err != nil {
		db.Close()
		return err
	}
	t0 := time.Now()
	s = tr.begin("checkpoint", root, op)
	err = db.Checkpoint(context.Background())
	tr.end(s)
	took := time.Since(t0)
	st.attempted++
	if err != nil {
		st.fail("checkpoint: %v", err)
	} else {
		st.ops++
		st.write = append(st.write, float64(took)/1e6)
	}
	// The rebuild's parse work is the write side's; keep it out of the
	// restart counters, which assert zero tuples parsed.
	st.eng.checkpoints += db.Stats().Sidecar.Checkpoints
	s = tr.begin("close", root, op)
	defer tr.end(s)
	return db.Close()
}

// sidecarBytes sums the sidecar files on disk.
func (w *restartWorkload) sidecarBytes() int64 {
	var total int64
	ents, err := os.ReadDir(w.auxDir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		total += fileSize(filepath.Join(w.auxDir, e.Name()))
	}
	return total
}

func (w *restartWorkload) finish(st *opStats) (endState, error) {
	side := w.sidecarBytes()
	return endState{
		auxBytes: w.last.PMBytes + w.last.CacheBytes,
		rawBytes: fileSize(w.path),
		extra:    map[string]float64{"sidecar.bytes": float64(side)},
	}, nil
}
