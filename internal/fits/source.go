package fits

import (
	"context"
	"fmt"
	"io"
	"strings"

	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
)

// Source is the FITS format adapter (paper §5.3: "The FITS-enabled
// PostgresRaw allows users to query FITS files ... using regular SQL").
// It rides the shared scan machinery of internal/format: the per-table
// context-aware RW lock (warm cache readers hold it shared and overlap —
// replacing the old one-scan-at-a-time mutex), the guarded access-method
// decision, the binary-cache fast path, and the partitioned worker pool.
//
// Binary rows are fixed width, so no positional map is needed — column
// offsets are implicit, and scans partition trivially by row index. The
// binary cache is the structure that matters here: it avoids re-reading
// and re-decoding the file once a column has been seen (the effect Fig 11
// measures against the CFITSIO baseline). "While parsing may not be
// required ... techniques such as caching become more important."
type Source struct {
	*format.State
	t *Table
}

// driver registers FITS with the format registry.
type driver struct{}

func init() { format.Register("fits", driver{}) }

// Caps implements format.Driver. FITS partitions by row index; it cannot
// be bulk-loaded (conventional DBMS do not support loading FITS, which is
// exactly the paper's §5.3 point) and its self-describing header leaves no
// room for appends.
func (driver) Caps() format.Caps {
	return format.Caps{
		Loadable:      false,
		LoadErr:       "FITS tables cannot be bulk-loaded; conventional DBMS do not support loading FITS (paper §5.3)",
		Partitionable: true,
	}
}

// Open implements format.Driver: it parses the FITS headers and validates
// the schema binding — the declared columns must match the file's
// TTYPEn/TFORMn declarations in order, name (case-insensitive) and type.
func (driver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	t, err := Open(tbl.Path)
	if err != nil {
		return nil, format.WrapFileErr(tbl.Name, err)
	}
	if err := validateBinding(t, tbl); err != nil {
		t.Close()
		return nil, err
	}
	// Attribute positions are implicit in fixed-width rows and the format
	// keeps no statistics collectors; the binary cache is the adaptive
	// structure for binary formats ("while parsing may not be required ...
	// techniques such as caching become more important"), so any engine
	// mode that keeps adaptive state — positional map, cache or both —
	// maps to the cache here. Only the external-files straw man (no
	// structures at all) stays cacheless.
	env.Cache = env.Cache || env.PosMap
	env.PosMap, env.AttrPointers, env.Statistics = false, false, false
	st := format.NewState(tbl, env)
	st.Rows.Store(t.NRows)
	if fp, err := format.TakeFingerprint(tbl.Path); err == nil {
		st.FP = fp
		st.FileSize = fp.Size
	}
	return &Source{State: st, t: t}, nil
}

// validateBinding checks the declared schema against the file's binary
// table layout.
func validateBinding(t *Table, tbl *schema.Table) error {
	if len(t.Cols) != tbl.NumColumns() {
		return fmt.Errorf("fits: table %s declares %d columns, %s has %d",
			tbl.Name, tbl.NumColumns(), tbl.Path, len(t.Cols))
	}
	for i, fc := range t.Cols {
		dc := tbl.Columns[i]
		if !strings.EqualFold(fc.Name, dc.Name) {
			return fmt.Errorf("fits: table %s column %d is declared %q, file says %q",
				tbl.Name, i+1, dc.Name, fc.Name)
		}
		if fc.Type.DatumType() != dc.Type {
			return fmt.Errorf("fits: table %s column %s is declared %s, file stores %s",
				tbl.Name, dc.Name, dc.Type, fc.Type.DatumType())
		}
	}
	return nil
}

// OpenScan implements format.Source through the shared access-method
// decision: read-only cache scans under shared holds when the cache
// covers, a row-index-partitioned worker-pool pass on a cold table, a
// sequential recording pass otherwise.
func (s *Source) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return s.NewScan(ctx, cols, conjuncts, format.ScanPlan{
		Seq: func(ctx context.Context) exec.Operator {
			return newFITSScan(ctx, s, cols, conjuncts, 0, s.t.NRows, s.Cache, 0, &s.Counters)
		},
		Par: func(ctx context.Context, workers int) exec.Operator {
			return newParallelFITSScan(ctx, s, cols, conjuncts, workers)
		},
		Refresh: s.refresh,
	}), nil
}

// refresh reconciles with external file changes. FITS headers are
// self-describing, so any change — truncation, rewrite, or growth — means
// re-parsing the header and starting the cache over (there is no
// meaningful "append" to a FITS file: the row count is declared up
// front). Callers hold Lk exclusively.
func (s *Source) refresh() error {
	if s.FP.Zero() {
		return s.reopenLocked()
	}
	change, _, err := s.FP.Check(s.Tbl.Path)
	if err != nil {
		s.InvalidateLocked()
		return format.WrapFileErr(s.Tbl.Name, err)
	}
	if change == format.FileSame {
		return nil
	}
	return s.reopenLocked()
}

// reopenLocked re-parses the file and drops derived state. Callers hold
// Lk exclusively.
func (s *Source) reopenLocked() error {
	t, err := Open(s.Tbl.Path)
	if err != nil {
		return format.WrapFileErr(s.Tbl.Name, err)
	}
	if err := validateBinding(t, s.Tbl); err != nil {
		t.Close()
		return err
	}
	s.t.Close()
	s.t = t
	if s.Cache != nil {
		s.Cache.DropAll()
	}
	s.Rows.Store(t.NRows)
	s.FileSize = 0
	s.FP = format.Fingerprint{}
	if fp, err := format.TakeFingerprint(s.Tbl.Path); err == nil {
		s.FP = fp
		s.FileSize = fp.Size
	}
	return nil
}

// Invalidate implements format.Source: waits for scans in flight, then
// drops the cache and re-reads the header.
func (s *Source) Invalidate() {
	if err := s.Lk.Lock(context.Background()); err == nil {
		defer s.Lk.Unlock()
		if s.Cache != nil {
			s.Cache.DropAll()
		}
		_ = s.reopenLocked()
	}
}

// Close implements format.Source: it closes the FITS file.
func (s *Source) Close() error { return s.t.Close() }

// fitsScan is the recording pass over rows [lo, hi): it decodes the
// needed columns straight into column-major batches (fixed-width rows
// columnarize trivially), filters with the vectorized kernels, and fills
// the binary cache as it goes. Cancellation is observed every 256 rows,
// exactly like the CSV pipeline. It honors LIMIT row budgets.
type fitsScan struct {
	ctx       context.Context
	prof      *qtrace.Profile // nil unless the query context carries one
	src       *Source
	t         *Table
	outCols   []int
	conjuncts []expr.Expr
	cols      []exec.Col
	needed    []int
	lo, hi    int64

	cache     *colcache.Cache  // destination: shared (sequential) or worker shard
	cacheBase int64            // row offset subtracted before cache writes
	sink      *format.Counters // where Close flushes the scan counters

	rd      *Reader
	views   []colcache.View
	row     int64 // next absolute row to decode
	readBuf []datum.Datum
	c       qtrace.Counts
	tick    int

	batchSize int
	budget    int64 // LIMIT pushdown; -1 = none
	produced  int64
	batch     *exec.Batch
	outBatch  *exec.Batch
	selBuf    []int
}

func newFITSScan(ctx context.Context, src *Source, outCols []int, conjuncts []expr.Expr,
	lo, hi int64, cache *colcache.Cache, cacheBase int64, sink *format.Counters) *fitsScan {
	if ctx == nil {
		ctx = context.Background()
	}
	return &fitsScan{
		ctx:       ctx,
		prof:      qtrace.FromContext(ctx),
		src:       src,
		t:         src.t,
		outCols:   outCols,
		conjuncts: conjuncts,
		cols:      format.OutputSchema(src.Tbl, outCols),
		needed:    format.NeededColumns(outCols, conjuncts),
		lo:        lo,
		hi:        hi,
		cache:     cache,
		cacheBase: cacheBase,
		sink:      sink,
		batchSize: src.BatchSize(),
		budget:    -1,
	}
}

// Columns implements exec.Operator.
func (s *fitsScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter.
func (s *fitsScan) SetRowBudget(n int64) { s.budget = n }

// Open positions the range reader and acquires cache views.
func (s *fitsScan) Open() error {
	if err := s.t.CheckPayload(); err != nil {
		return err
	}
	s.rd = s.t.NewRangeReader(s.lo, s.hi)
	if s.prof != nil {
		s.rd.SetReaderAt(qtrace.CountReaderAt(s.prof, s.t.f))
	}
	s.row = s.lo
	s.produced = 0
	if s.cache != nil {
		if s.views == nil {
			s.views = make([]colcache.View, s.src.Tbl.NumColumns())
		}
		for i := range s.views {
			s.views[i] = colcache.View{}
		}
		for _, c := range s.needed {
			s.views[c] = s.cache.View(c, s.src.Types[c])
		}
	}
	return nil
}

// Close publishes the scan's counters (each worker shard flushes exactly
// once).
func (s *fitsScan) Close() error {
	s.sink.Flush(s.prof, &s.c)
	return nil
}

// NextBatch decodes up to one batch of rows, caches the values and
// narrows the selection vector conjunct by conjunct.
func (s *fitsScan) NextBatch() (*exec.Batch, error) {
	if s.batch == nil {
		s.batch = &exec.Batch{Cols: make([][]datum.Datum, s.src.Tbl.NumColumns())}
		s.outBatch = &exec.Batch{Cols: make([][]datum.Datum, len(s.outCols))}
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		if s.row >= s.hi {
			return nil, io.EOF
		}
		if s.budget >= 0 && s.produced >= s.budget {
			return nil, io.EOF
		}
		n := s.batchSize
		if rem := s.hi - s.row; int64(n) > rem {
			n = int(rem)
		}
		if s.budget >= 0 && len(s.conjuncts) == 0 {
			// Unfiltered batches are all live: never decode past the budget.
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
		}
		for i := 0; i < n; i++ {
			if s.tick++; s.tick&255 == 0 {
				if err := s.ctx.Err(); err != nil {
					return nil, err
				}
			}
			buf, err := s.rd.Next(s.needed, s.readBuf)
			s.readBuf = buf
			if err != nil {
				return nil, fmt.Errorf("fits: %s row %d: %w", s.src.Tbl.Name, s.row+int64(i)+1, err)
			}
			cacheRow := int(s.row - s.cacheBase + int64(i))
			for j, c := range s.needed {
				b.Cols[c][i] = buf[j]
				if s.views != nil && s.views[c].Valid() {
					s.views[c].Put(cacheRow, buf[j])
				}
			}
		}
		s.c[qtrace.CtrTuplesParsed] += int64(n)
		s.c[qtrace.CtrFieldsParsed] += int64(n * len(s.needed))
		b.N = n
		sel, live, err := format.NarrowSelection(s.conjuncts, b.Cols, n, &s.selBuf, nil)
		if err != nil {
			return nil, err
		}
		s.row += int64(n)
		if live == 0 && len(s.conjuncts) > 0 {
			continue
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

// newParallelFITSScan partitions [0, NRows) into contiguous row ranges and
// runs one decode worker per range through the shared worker pool. Each
// worker fills a private cache shard (absorbed into the shared cache at
// merge, where the budget applies) and private counters; batches merge
// back in row order, so results are bit-identical to the sequential pass
// for any worker count.
func newParallelFITSScan(ctx context.Context, src *Source, outCols []int, conjuncts []expr.Expr, workers int) exec.Operator {
	var shards []*fitsScan
	return format.NewPool(ctx, format.PoolConfig{
		Cols: format.OutputSchema(src.Tbl, outCols),
		Start: func() (int, error) {
			nrows := src.t.NRows
			w := int64(workers)
			if w > nrows {
				w = nrows
			}
			if w < 1 {
				w = 1
			}
			qtrace.FromContext(ctx).Count(qtrace.CtrWorkers, w)
			shards = make([]*fitsScan, 0, w)
			for i := int64(0); i < w; i++ {
				lo := nrows * i / w
				hi := nrows * (i + 1) / w
				var shardCache *colcache.Cache
				if src.Cache != nil {
					shardCache = colcache.New(0)
				}
				shards = append(shards,
					newFITSScan(ctx, src, outCols, conjuncts, lo, hi, shardCache, lo, &format.Counters{}))
			}
			return len(shards), nil
		},
		Run: func(part int, emit func(*exec.Batch) bool) error {
			s := shards[part]
			if err := s.Open(); err != nil {
				return err
			}
			defer s.Close()
			return format.PumpBatches(s, format.BatchRowsPerMsg, emit)
		},
		Merge: func(n int, clean bool) error {
			for _, sh := range shards[:n] {
				if src.Cache != nil {
					src.Cache.Absorb(sh.cache, int(sh.lo))
				}
				c := sh.sink.Load()
				src.Counters.Flush(nil, &c)
			}
			return nil
		},
	})
}
