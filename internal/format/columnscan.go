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

// ColumnLoader is what a producer of already-binary columns supplies to
// ColumnScan: the binary cache (NewCacheScan) and the FITS recording pass
// fill the scan's needed columns for a range of rows, and the frame does
// everything else.
type ColumnLoader interface {
	// Open prepares a pass over the needed columns and returns the
	// range's row count.
	Open(needed []int) (rows int, err error)
	// Load fills cols[c][:n], for every needed column c, with the values
	// of rows [row, row+n) of the range, counting its work into c.
	Load(cols [][]datum.Datum, row, n int, c *qtrace.Counts) error
	// End runs when the pass reaches the range's last row — never when a
	// LIMIT or an error stops it first.
	End()
}

// ColumnScan is the batch loop of every scan whose columns arrive binary:
// per batch it sizes the rows (an unfiltered scan never loads past its
// LIMIT), has the loader fill the needed columns, narrows a selection
// vector conjunct by conjunct with expr.FilterBatch, skips batches with
// no survivors, and hands out an output batch whose columns alias the
// filled vectors. Its counters flush once, at Close. As a Part it also
// serves a partition worker (FITS row ranges).
type ColumnScan struct {
	ctx       context.Context
	st        *State
	load      ColumnLoader
	outCols   []int
	conjuncts []expr.Expr
	conjCols  [][]int // per conjunct, the columns it reads
	cols      []exec.Col
	needed    []int
	hits      bool // count a cache hit per value the selection reads

	row  int // next row of the range to load
	rows int // the range's row count, from the loader's Open

	c qtrace.Counts

	batchSize int
	budget    int64       // LIMIT pushdown; -1 = none
	produced  int64       // live rows delivered by NextBatch
	batch     *exec.Batch // table-width working columns (needed ones filled)
	outBatch  *exec.Batch // outCols-ordered aliases of batch's columns
	selBuf    []int

	pend *exec.Batch // Fill: the batch being copied out, next live row at k
	k    int
}

// NewColumnScan builds the frame over st: load fills the columns, st
// receives the counters at Close.
func NewColumnScan(ctx context.Context, st *State, outCols []int, conjuncts []expr.Expr, load ColumnLoader) *ColumnScan {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &ColumnScan{
		ctx:       ctx,
		st:        st,
		load:      load,
		outCols:   outCols,
		conjuncts: conjuncts,
		cols:      OutputSchema(st.Tbl, outCols),
		needed:    NeededColumns(outCols, conjuncts),
		batchSize: st.BatchSize(),
		budget:    -1,
	}
	s.conjCols = make([][]int, len(conjuncts))
	for i, c := range conjuncts {
		s.conjCols[i] = expr.DistinctColumns(c)
	}
	return s
}

// NewCacheScan builds a scan that serves a query entirely from the binary
// cache, never touching the raw file (the optimal regime of the paper's
// Fig 6 third epoch). It is format-agnostic — any adapter whose cache
// fully covers the query uses it. A readonly scan acquires views without
// LRU side effects and confines every update to its private counters, so
// it runs under a shared table lock concurrently with other cache scans.
//
// Cache hits are counted like the in-situ scan's conjunct-first
// evaluation: each conjunct charges its columns only for rows that
// survived the conjuncts before it, and output columns only for
// qualifying rows.
func NewCacheScan(ctx context.Context, st *State, outCols []int, conjuncts []expr.Expr, readonly bool) *ColumnScan {
	s := NewColumnScan(ctx, st, outCols, conjuncts, &cacheLoader{st: st, readonly: readonly})
	s.hits = true
	return s
}

// Columns implements exec.Operator.
func (s *ColumnScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter.
func (s *ColumnScan) SetRowBudget(n int64) { s.budget = n }

// Shard implements Part.
func (s *ColumnScan) Shard() *State { return s.st }

// Open resets the cursor and opens the loader.
func (s *ColumnScan) Open() error {
	s.row, s.produced = 0, 0
	s.pend, s.k = nil, 0
	rows, err := s.load.Open(s.needed)
	s.rows = rows
	return err
}

// Close publishes the scan's counters into st (each worker shard flushes
// exactly once).
func (s *ColumnScan) Close() error {
	s.st.Counters.Flush(qtrace.FromContext(s.ctx), &s.c)
	return nil
}

// NextBatch loads up to one batch of rows and narrows its selection.
func (s *ColumnScan) NextBatch() (*exec.Batch, error) {
	if s.batch == nil {
		// Table-width column table, but only needed columns ever allocate.
		s.batch = &exec.Batch{Cols: make([][]datum.Datum, s.st.Tbl.NumColumns())}
		s.outBatch = &exec.Batch{Cols: make([][]datum.Datum, len(s.outCols))}
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		if s.row >= s.rows {
			s.load.End()
			return nil, io.EOF
		}
		if s.budget >= 0 && s.produced >= s.budget {
			return nil, io.EOF
		}
		n := min(s.batchSize, s.rows-s.row)
		if s.budget >= 0 && len(s.conjuncts) == 0 {
			// Unfiltered batches are all live: never load past the budget.
			n = int(min(int64(n), s.budget-s.produced))
		}
		b := s.batch
		for _, c := range s.needed {
			if cap(b.Cols[c]) < n {
				b.Cols[c] = make([]datum.Datum, n)
			}
			b.Cols[c] = b.Cols[c][:n]
		}
		if err := s.load.Load(b.Cols, s.row, n, &s.c); err != nil {
			return nil, err
		}
		b.N = n
		sel, live, err := s.narrow(b.Cols, n)
		if err != nil {
			return nil, err
		}
		s.row += n
		if live == 0 && len(s.conjuncts) > 0 {
			continue
		}
		if s.hits {
			s.c[qtrace.CtrCacheHits] += int64(live * len(s.outCols))
		}
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

// narrow filters the batch's columns conjunct by conjunct, returning the
// selection vector of surviving positions (nil when no conjuncts ran) and
// its length.
func (s *ColumnScan) narrow(cols [][]datum.Datum, n int) ([]int, int, error) {
	var sel []int
	live := n
	for i, conj := range s.conjuncts {
		if s.hits {
			s.c[qtrace.CtrCacheHits] += int64(live * len(s.conjCols[i]))
		}
		var err error
		if sel == nil {
			sel, err = expr.FilterBatch(conj, cols, n, nil, s.selBuf[:0])
			s.selBuf = sel
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

// Fill implements Part: it copies the live rows of the loaded batches
// into b, a worker's freshly allocated message, until it holds n.
func (s *ColumnScan) Fill(b *exec.Batch, n int) error {
	for b.N < n {
		if s.pend == nil || s.k >= s.pend.Live() {
			var err error
			if s.pend, err = s.NextBatch(); err != nil {
				return err
			}
			s.k = 0
		}
		i := s.k
		if s.pend.Sel != nil {
			i = s.pend.Sel[s.k]
		}
		for j := range b.Cols {
			b.Cols[j] = append(b.Cols[j], s.pend.Cols[j][i])
		}
		b.N++
		s.k++
	}
	return nil
}

// cacheLoader reads a fully cached table through column views acquired at
// Open: ReadViews (no entry creation, no LRU movement) for a readonly
// scan, Views otherwise.
type cacheLoader struct {
	st       *State
	readonly bool
	needed   []int
	views    []colcache.View
}

func (l *cacheLoader) Open(needed []int) (int, error) {
	l.needed = needed
	if l.views == nil {
		l.views = make([]colcache.View, l.st.Tbl.NumColumns())
	}
	for _, c := range needed {
		if l.readonly {
			l.views[c] = l.st.Cache.ReadView(c)
		} else {
			l.views[c] = l.st.Cache.View(c, l.st.Types[c])
		}
		if !l.views[c].Valid() {
			return 0, fmt.Errorf("format: cache scan lost column %d (concurrent eviction?)", c)
		}
	}
	return int(l.st.Rows.Load()), nil
}

func (l *cacheLoader) Load(cols [][]datum.Datum, row, n int, _ *qtrace.Counts) error {
	for _, c := range l.needed {
		if !l.views[c].GetBatch(row, n, cols[c]) {
			return fmt.Errorf("format: cache scan lost column %d rows %d..%d (concurrent eviction?)", c, row, row+n-1)
		}
	}
	return nil
}

// End implements ColumnLoader: the cache's row count is the table's.
func (l *cacheLoader) End() {}
