package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"nodb"
	"nodb/internal/workload"
)

// coldWorkload is cold_first_query: every operation opens a fresh engine
// over wide.csv, runs one 3-column projection with a ~50 % filter on a
// mid-row attribute, drains it and closes. It is the paper's data-to-query
// cost: tokenizing, parsing and recording into the positional map, cache
// and statistics do nearly all the work.
type coldWorkload struct {
	cfg     *runConfig
	path    string
	queries []*wideQuery
	next    int
	auxSum  int64 // positional map + cache bytes, summed over operations
	auxN    int64
}

const coldQueryPool = 8

func newColdWorkload(cfg *runConfig) *coldWorkload {
	return &coldWorkload{cfg: cfg, queries: coldQueries(cfg.seed, cfg.scale.wideAttrs, coldQueryPool)}
}

// coldQueries builds the operation's query pool. Which attributes a query
// reads is fixed — one early, one middle, one late in the row, shifted by
// one per query — so every run tokenizes equally far into the tuples; the
// seed picks the filter bounds (45–55 % selectivity) and, through the
// generator, every value in the file.
func coldQueries(seed int64, attrs, n int) []*wideQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
	at := func(pos int) int { return pos * attrs / 50 }
	out := make([]*wideQuery, n)
	for i := range out {
		proj := []int{at(2 + i), at(21 + i), at(40 + i)}
		bound := int64(workload.MaxValue/2) + rng.Int63n(workload.MaxValue/10) - workload.MaxValue/20
		out[i] = newWideQuery(proj, at(20+i), bound)
	}
	return out
}

func (w *coldWorkload) prepare(dir string) error {
	w.path = filepath.Join(dir, "wide.csv")
	return workload.GenerateWide(w.path, w.cfg.scale.wideRows, w.cfg.scale.wideAttrs, w.cfg.seed)
}

func (w *coldWorkload) release() error { return nil }

func (w *coldWorkload) expect() error {
	cols, err := wideColumns(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return err
	}
	for _, q := range w.queries {
		q.expect(cols)
	}
	return nil
}

func (w *coldWorkload) open() (*nodb.DB, error) {
	cat, err := wideCatalog(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return nil, err
	}
	return nodb.Open(cat, nodb.Options{})
}

func (w *coldWorkload) measure(d time.Duration, tr *tracer, st *opStats) error {
	begin := time.Now()
	for time.Since(begin) < d {
		q := w.queries[w.next%len(w.queries)]
		w.next++
		op := st.newOp()
		t0 := time.Now()
		root := tr.begin("op", 0, op)

		s := tr.begin("open", root, op)
		db, err := w.open()
		tr.end(s)
		if err != nil {
			return err
		}
		got, first, qerr := runQuery(db, tr, root, op, st, t0, q.sql)
		st.eng.add(db.Stats(), +1)
		m := db.Metrics("wide")
		w.auxSum += m.PMBytes + m.CacheBytes
		w.auxN++
		st.eng.pmEvictions += m.PMEvictions
		s = tr.begin("close", root, op)
		cerr := db.Close()
		tr.end(s)
		tr.end(root)

		st.record(time.Since(t0), first, got.Rows, q.verdict(got, qerr, cerr))
	}
	st.wall += time.Since(begin)
	return nil
}

// wideInsert renders an INSERT of one all-integer row into wide.
func wideInsert(attrs, i int) string {
	b := []byte("INSERT INTO wide VALUES (")
	for a := 0; a < attrs; a++ {
		if a > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", (i+1)*1000+a)
	}
	return string(append(b, ')'))
}

// writeProbeInserts is how many single-row INSERTs the read-only workloads
// time for write_ms_p50.
const writeProbeInserts = 300

// wideWriteProbe opens a fresh engine over wide.csv, runs the warm queries
// to build the adaptive state the workload leaves behind, and times the
// append probe against it.
func wideWriteProbe(open func() (*nodb.DB, error), warm []*wideQuery, attrs int, st *opStats) error {
	db, err := open()
	if err != nil {
		return err
	}
	for _, q := range warm {
		if _, err := queryDigest(db, q.sql); err != nil {
			db.Close()
			return err
		}
	}
	if err := appendProbe(db, st, writeProbeInserts, func(i int) string { return wideInsert(attrs, i) }); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

func (w *coldWorkload) finish(st *opStats) (endState, error) {
	end := endState{
		auxBytes: w.auxSum / w.auxN, // mean over operations: what one cold query leaves behind
		rawBytes: fileSize(w.path),
	}
	// Write probe: appends against the state one cold query leaves behind.
	return end, wideWriteProbe(w.open, w.queries[:1], w.cfg.scale.wideAttrs, st)
}
