package fits

import (
	"context"
	"fmt"
	"strings"

	"nodb/internal/chunkdir"
	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
	"nodb/internal/stats"
)

// Source is the FITS format adapter (paper §5.3: "The FITS-enabled
// PostgresRaw allows users to query FITS files ... using regular SQL").
// It rides the shared scan machinery of internal/format: the per-table
// context-aware RW lock (warm cache readers hold it shared and overlap —
// replacing the old one-scan-at-a-time mutex), the guarded access-method
// decision, the binary-cache fast path, and the partitioned scan.
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

// Open implements format.Driver: it parses the FITS headers and validates
// the schema binding — the declared columns must match the file's
// TTYPEn/TFORMn declarations in order, name (case-insensitive) and type.
// FITS cannot be bulk-loaded: conventional DBMS do not support loading
// FITS, which is exactly the paper's §5.3 point.
func (driver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	if env.LoadFirst() {
		return nil, fmt.Errorf("fits: table %s: FITS tables cannot be bulk-loaded; conventional DBMS do not support loading FITS (paper §5.3)", tbl.Name)
	}
	t, err := Open(tbl.Path)
	if err != nil {
		return nil, format.WrapFileErr(tbl.Name, err)
	}
	if err := validateBinding(t, tbl); err != nil {
		t.Close()
		return nil, err
	}
	// Attribute positions are implicit in fixed-width rows; the binary
	// cache is the adaptive structure for binary formats ("while parsing
	// may not be required ... techniques such as caching become more
	// important"), so any engine mode that keeps adaptive state —
	// positional map, cache or both — maps to the cache here. Only the
	// external-files straw man (no structures at all) stays cacheless.
	env.Cache = env.Cache || env.PosMap
	env.PosMap, env.AttrPointers = false, false
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
// covers, a row-range partitioned pass on a cold table, a sequential
// recording pass otherwise.
func (s *Source) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return s.NewScan(ctx, cols, conjuncts, format.ScanPlan{
		Seq: func(ctx context.Context) exec.Operator {
			return newRangeScan(ctx, s.State, s.t, cols, conjuncts, 0, s.t.NRows)
		},
		Par: func(ctx context.Context, workers int) exec.Operator {
			// Contiguous row ranges of whole chunks (the header gives the row
			// count), at most one per worker, none empty: every shard
			// segment is adopted whole at merge.
			return s.NewPartitionedScan(ctx, cols, workers, func(workers int) ([]format.Part, func() error, error) {
				nrows, cr := s.t.NRows, int64(chunkdir.ChunkRows)
				chunks := max((nrows+cr-1)/cr, 1)
				n := min(int64(workers), chunks)
				parts := make([]format.Part, n)
				for i := range n {
					parts[i] = newRangeScan(ctx, s.Shard(), s.t, cols, conjuncts, min(chunks*i/n*cr, nrows), min(chunks*(i+1)/n*cr, nrows))
				}
				return parts, nil, nil
			})
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
	s.InvalidateLocked()
	s.Rows.Store(t.NRows)
	if fp, err := format.TakeFingerprint(s.Tbl.Path); err == nil {
		s.FP = fp
		s.FileSize = fp.Size
	}
	return nil
}

// Invalidate implements format.Source: waits for scans in flight, then
// drops the adaptive state and re-reads the header.
func (s *Source) Invalidate() {
	if err := s.Lk.Lock(context.Background()); err == nil {
		defer s.Lk.Unlock()
		s.InvalidateLocked()
		_ = s.reopenLocked()
	}
}

// Close implements format.Source: it closes the FITS file.
func (s *Source) Close() error { return s.t.Close() }

// rangeLoader is the FITS loader of the column-scan frame: the recording
// pass over rows [lo, hi) into st — the table's own State, or a partition
// worker's shard (State.Shard). It decodes the needed columns straight
// into the frame's column-major batch (fixed-width rows columnarize
// trivially) and fills st's binary cache and column synopses as it goes,
// at rows relative to lo; a synopsis's position key is the absolute row
// number. Cancellation is observed every 256 rows, exactly like the CSV
// pipeline; the range's row count publishes only when the pass reaches
// its end.
type rangeLoader struct {
	ctx    context.Context
	st     *format.State
	t      *Table
	lo, hi int64

	needed  []int
	rd      *Reader
	views   []colcache.View
	syns    []*stats.Synopsis // per column: what the pass feeds; nil = none
	readBuf []datum.Datum
	tick    int
}

// newRangeScan is the recording pass over rows [lo, hi) of t into st.
func newRangeScan(ctx context.Context, st *format.State, t *Table, outCols []int, conjuncts []expr.Expr, lo, hi int64) *format.ColumnScan {
	if ctx == nil {
		ctx = context.Background()
	}
	return format.NewColumnScan(ctx, st, outCols, conjuncts, &rangeLoader{ctx: ctx, st: st, t: t, lo: lo, hi: hi})
}

// Open positions the range reader and acquires cache views and synopses.
func (l *rangeLoader) Open(needed []int) (int, error) {
	if err := l.t.CheckPayload(); err != nil {
		return 0, err
	}
	l.needed = needed
	l.rd = l.t.NewRangeReader(l.lo, l.hi)
	if prof := qtrace.FromContext(l.ctx); prof != nil {
		l.rd.SetReaderAt(qtrace.CountReaderAt(prof, l.t.f))
	}
	if l.views == nil {
		l.views = make([]colcache.View, l.st.Tbl.NumColumns())
	}
	if cache := l.st.Cache; cache != nil {
		for _, c := range needed {
			l.views[c] = cache.View(c, l.st.Types[c])
		}
	}
	if l.st.Env.Statistics {
		l.syns = make([]*stats.Synopsis, l.st.Tbl.NumColumns())
		for _, c := range needed {
			l.syns[c] = l.st.Dir.Feed(c, l.st.Types[c])
		}
	}
	return int(l.hi - l.lo), nil
}

// Load decodes rows [row, row+n) of the range, caches their values (a
// view that is not attached keeps nothing) and feeds each synopsis that
// covers the rows before them.
func (l *rangeLoader) Load(cols [][]datum.Datum, row, n int, c *qtrace.Counts) error {
	for i := 0; i < n; i++ {
		if l.tick++; l.tick&255 == 0 {
			if err := l.ctx.Err(); err != nil {
				return err
			}
		}
		buf, err := l.rd.Next(l.needed, l.readBuf)
		l.readBuf = buf
		if err != nil {
			return fmt.Errorf("fits: %s row %d: %w", l.st.Tbl.Name, l.lo+int64(row+i)+1, err)
		}
		for j, col := range l.needed {
			cols[col][i] = buf[j]
			l.views[col].Put(row+i, buf[j])
		}
	}
	for _, col := range l.needed {
		if l.syns != nil && l.syns[col] != nil && l.syns[col].Rows() == int64(row) {
			for i, v := range cols[col][:n] {
				l.syns[col].Add(uint64(l.lo)+uint64(row+i), v)
			}
		}
	}
	c[qtrace.CtrTuplesParsed] += int64(n)
	c[qtrace.CtrFieldsParsed] += int64(n * len(l.needed))
	return nil
}

// End publishes the range's row count into st.
func (l *rangeLoader) End() { l.st.Rows.Store(l.hi - l.lo) }
