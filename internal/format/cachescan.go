package format

import (
	"context"
	"fmt"
	"io"

	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
)

// CacheScan serves a query entirely from the binary cache, never touching
// the raw file (the optimal regime of the paper's Fig 6 third epoch). It
// is format-agnostic — any adapter whose cache fully covers the query uses
// it, which is what lets warm FITS and JSON-Lines traffic share the CSV
// engine's fast path. In readonly mode (unbudgeted caches) it runs under a
// shared table lock concurrently with other cache scans: views are
// acquired without LRU side effects and every shared-state update is
// confined to the private counters.
type CacheScan struct {
	ctx       context.Context
	st        *State
	outCols   []int
	conjuncts []expr.Expr
	conjCols  [][]int
	cols      []exec.Col
	needed    []int
	readonly  bool

	row   int
	nrows int64 // State.Rows snapshot, stable for the scan's lifetime
	views []colcache.View

	c qtrace.Counts

	batchSize int
	budget    int64       // LIMIT pushdown; -1 = none
	produced  int64       // live rows delivered by NextBatch
	batch     *exec.Batch // table-width working columns (needed ones filled)
	outBatch  *exec.Batch // outCols-ordered aliases of batch's columns
	selBuf    []int
}

// NarrowSelection filters a batch's columns conjunct by conjunct,
// producing the selection vector of surviving positions (nil when no
// conjuncts ran). selBuf is the caller's reusable first-pass buffer.
// onConjunct, when set, observes each conjunct index with the live count
// it is about to evaluate (instrumentation such as cache-hit accounting).
// Shared by every batch-native scan so selection semantics cannot diverge
// between formats.
func NarrowSelection(conjuncts []expr.Expr, cols [][]datum.Datum, n int, selBuf *[]int, onConjunct func(ci, live int)) ([]int, int, error) {
	var sel []int
	live := n
	for i, conj := range conjuncts {
		if onConjunct != nil {
			onConjunct(i, live)
		}
		var err error
		if sel == nil {
			sel, err = expr.FilterBatch(conj, cols, n, nil, (*selBuf)[:0])
			*selBuf = sel
		} else {
			sel, err = expr.FilterBatch(conj, cols, n, sel, sel[:0])
		}
		if err != nil {
			return nil, 0, err
		}
		live = len(sel)
		if live == 0 {
			break
		}
	}
	return sel, live, nil
}

// NewCacheScan builds a pure cache scan over st. readonly scans acquire
// side-effect-free views and may run under a shared lock hold.
func NewCacheScan(ctx context.Context, st *State, outCols []int, conjuncts []expr.Expr, readonly bool) *CacheScan {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &CacheScan{
		ctx:       ctx,
		st:        st,
		outCols:   outCols,
		conjuncts: conjuncts,
		readonly:  readonly,
		batchSize: st.BatchSize(),
		budget:    -1,
	}
	s.cols = OutputSchema(st.Tbl, outCols)
	s.conjCols = make([][]int, len(conjuncts))
	for i, c := range conjuncts {
		s.conjCols[i] = expr.DistinctColumns(c)
	}
	s.needed = NeededColumns(outCols, conjuncts)
	return s
}

// Columns implements exec.Operator.
func (s *CacheScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter.
func (s *CacheScan) SetRowBudget(n int64) { s.budget = n }

// Open resets the cursor and acquires column views.
func (s *CacheScan) Open() error {
	s.row = 0
	s.produced = 0
	s.nrows = s.st.Rows.Load()
	if s.views == nil {
		s.views = make([]colcache.View, s.st.Tbl.NumColumns())
	}
	for i := range s.views {
		s.views[i] = colcache.View{}
	}
	for _, c := range s.needed {
		if s.readonly {
			s.views[c] = s.st.Cache.ReadView(c)
		} else {
			s.views[c] = s.st.Cache.View(c, s.st.Types[c])
		}
		if !s.views[c].Valid() {
			return fmt.Errorf("format: cache scan lost column %d (concurrent eviction?)", c)
		}
	}
	return nil
}

// Close publishes the scan's counters.
func (s *CacheScan) Close() error {
	s.st.Counters.Flush(qtrace.FromContext(s.ctx), &s.c)
	return nil
}

// NextBatch fills table-width column vectors densely from the cache
// (colcache.View.GetBatch), narrows a selection vector conjunct by
// conjunct with expr.FilterBatch, and hands out an output batch whose
// columns alias the filled vectors — no per-row lookups, no value
// movement. Cache-hit accounting matches the in-situ scan's conjunct-first
// evaluation: each conjunct charges its columns only for rows that
// survived the conjuncts before it, and output columns only for qualifying
// rows.
func (s *CacheScan) NextBatch() (*exec.Batch, error) {
	if s.batch == nil {
		// Table-width column table, but only needed columns ever allocate.
		s.batch = &exec.Batch{Cols: make([][]datum.Datum, len(s.views))}
		s.outBatch = &exec.Batch{Cols: make([][]datum.Datum, len(s.outCols))}
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		if int64(s.row) >= s.nrows {
			return nil, io.EOF
		}
		if s.budget >= 0 && s.produced >= s.budget {
			return nil, io.EOF
		}
		n := s.batchSize
		if rem := int(s.nrows) - s.row; rem < n {
			n = rem
		}
		if s.budget >= 0 && len(s.conjuncts) == 0 {
			// Unfiltered batches are all live: never materialize past the
			// budget.
			if rem := s.budget - s.produced; int64(n) > rem {
				n = int(rem)
			}
		}
		b := s.batch
		for _, c := range s.needed {
			if cap(b.Cols[c]) < n {
				b.Cols[c] = make([]datum.Datum, n)
			}
			b.Cols[c] = b.Cols[c][:n]
			if !s.views[c].GetBatch(s.row, n, b.Cols[c]) {
				return nil, fmt.Errorf("format: cache scan lost column %d rows %d..%d (concurrent eviction?)", c, s.row, s.row+n-1)
			}
		}
		b.N = n
		sel, live, err := NarrowSelection(s.conjuncts, b.Cols, n, &s.selBuf,
			func(ci, live int) { s.c[qtrace.CtrCacheHits] += int64(live * len(s.conjCols[ci])) })
		if err != nil {
			return nil, err
		}
		s.row += n
		if live == 0 && len(s.conjuncts) > 0 {
			continue
		}
		s.c[qtrace.CtrCacheHits] += int64(live * len(s.outCols))
		s.produced += int64(live)
		out := s.outBatch
		for i, c := range s.outCols {
			out.Cols[i] = b.Cols[c]
		}
		out.N = n
		out.Sel = sel
		return out, nil
	}
}
