package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"nodb"
	"nodb/internal/workload"
)

// adaptiveWorkload is adaptive_sequence: fresh engines each replay one
// sequence of random 5-attribute projection+filter queries whose attribute
// range shifts over three epochs, with the positional map and the cache
// capped at a quarter of what the touched columns need. It is the paper's
// adaptation curve with a working set larger than the engine's own caches:
// map lookups, cache puts and evictions, and selective tokenizing dominate.
type adaptiveWorkload struct {
	cfg      *runConfig
	path     string
	sequence []*wideQuery
	opts     nodb.Options
	last     nodb.Metrics
	longest  time.Duration // slowest sequence so far, to stop before the window ends
}

const (
	adaptiveEpochQueries = 20 // x 3 epochs = one 60-query sequence
	adaptiveProjection   = 5
	// The budgets hold a quarter of the touched working set.
	adaptiveBudgetShare = 4
)

func newAdaptiveWorkload(cfg *runConfig) *adaptiveWorkload {
	w := &adaptiveWorkload{cfg: cfg}
	// Which attributes each query of the sequence reads comes from a fixed
	// stream, so every run replays the same access pattern and evicts the
	// same way; the seed picks the filter bounds and, through the
	// generator, every value in the file.
	shape := rand.New(rand.NewSource(0x61646170))
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x61646170))
	epochs := workload.Fig6Epochs(cfg.scale.wideAttrs, adaptiveEpochQueries)[:3]
	touched := 0
	for _, ep := range epochs {
		if ep.HiAttr > touched {
			touched = ep.HiAttr
		}
		for i := 0; i < ep.Queries; i++ {
			perm := shape.Perm(ep.HiAttr - ep.LoAttr)[:adaptiveProjection]
			proj := make([]int, len(perm))
			for j, p := range perm {
				proj[j] = ep.LoAttr + p
			}
			// Selectivity between 35 % and 65 % of the uniform value range.
			bound := int64(workload.MaxValue*35/100) + rng.Int63n(workload.MaxValue*30/100)
			w.sequence = append(w.sequence, newWideQuery(proj, proj[0], bound))
		}
	}
	rows := int64(cfg.scale.wideRows)
	w.opts = nodb.Options{
		CacheBudget:         int64(touched) * rows * 8 / adaptiveBudgetShare,
		PositionalMapBudget: int64(touched) * rows * 4 / adaptiveBudgetShare,
	}
	return w
}

func (w *adaptiveWorkload) prepare(dir string) error {
	w.path = filepath.Join(dir, "wide.csv")
	return workload.GenerateWide(w.path, w.cfg.scale.wideRows, w.cfg.scale.wideAttrs, w.cfg.seed)
}

func (w *adaptiveWorkload) release() error { return nil }

func (w *adaptiveWorkload) expect() error {
	cols, err := wideColumns(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return err
	}
	for _, q := range w.sequence {
		q.expect(cols)
	}
	return nil
}

func (w *adaptiveWorkload) open() (*nodb.DB, error) {
	cat, err := wideCatalog(w.path, w.cfg.scale.wideAttrs)
	if err != nil {
		return nil, err
	}
	return nodb.Open(cat, w.opts)
}

// measure replays whole sequences only: an operation's cost depends on its
// position in the sequence, so a partial sequence would change the mix of
// cold and warm queries from run to run.
func (w *adaptiveWorkload) measure(d time.Duration, tr *tracer, st *opStats) error {
	st.chunk = len(w.sequence) // one slice of the window = one whole sequence
	begin := time.Now()
	for seq := 0; ; seq++ {
		if seq > 0 && time.Since(begin)+w.longest > d {
			break
		}
		seqStart := time.Now()
		db, err := w.open()
		if err != nil {
			return err
		}
		for _, q := range w.sequence {
			op := st.newOp()
			t0 := time.Now()
			root := tr.begin("op", 0, op)
			got, first, qerr := runQuery(db, tr, root, op, st, t0, q.sql)
			tr.end(root)
			st.record(time.Since(t0), first, got.Rows, q.verdict(got, qerr))
		}
		st.eng.add(db.Stats(), +1)
		w.last = db.Metrics("wide")
		st.eng.pmEvictions += w.last.PMEvictions
		if err := db.Close(); err != nil {
			return err
		}
		if took := time.Since(seqStart); took > w.longest {
			w.longest = took
		}
	}
	st.wall += time.Since(begin)
	return nil
}

func (w *adaptiveWorkload) finish(st *opStats) (endState, error) {
	end := endState{
		auxBytes: w.last.PMBytes + w.last.CacheBytes,
		rawBytes: fileSize(w.path),
	}
	// Write probe: appends against a table whose map and cache are full to
	// their budgets.
	return end, wideWriteProbe(w.open, w.sequence[:adaptiveEpochQueries], w.cfg.scale.wideAttrs, st)
}
