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

// Caps implements format.Driver. FITS cannot be bulk-loaded
// (conventional DBMS do not support loading FITS, which is exactly the
// paper's §5.3 point) and its self-describing header leaves no room for
// appends.
func (driver) Caps() format.Caps {
	return format.Caps{
		Loadable: false,
		LoadErr:  "FITS tables cannot be bulk-loaded; conventional DBMS do not support loading FITS (paper §5.3)",
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
// covers, a row-range partitioned pass on a cold table, a sequential
// recording pass otherwise.
func (s *Source) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return s.NewScan(ctx, cols, conjuncts, format.ScanPlan{
		Seq: func(ctx context.Context) exec.Operator {
			return newFITSScan(ctx, s.State, s.t, cols, conjuncts, 0, s.t.NRows)
		},
		Par: func(ctx context.Context, workers int) exec.Operator {
			// Contiguous row ranges, one per worker, each decoded into a
			// private cache shard.
			return s.NewPartitionedScan(ctx, cols, workers, func(workers int) ([]format.Part, func() error, error) {
				nrows := s.t.NRows
				n := max(min(int64(workers), nrows), 1)
				parts := make([]format.Part, n)
				for i := range n {
					parts[i] = newFITSScan(ctx, s.Shard(), s.t, cols, conjuncts, nrows*i/n, nrows*(i+1)/n)
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

// fitsScan is the recording pass over rows [lo, hi) into st — the
// table's own State, or a partition worker's shard (State.Shard): it
// decodes the needed columns straight into column-major batches
// (fixed-width rows columnarize trivially), filters with the vectorized
// kernels, and fills st's binary cache as it goes, at rows relative to lo.
// Cancellation is observed every 256 rows, exactly like the CSV pipeline.
// It honors LIMIT row budgets.
type fitsScan struct {
	ctx       context.Context
	prof      *qtrace.Profile // nil unless the query context carries one
	st        *format.State
	t         *Table
	outCols   []int
	conjuncts []expr.Expr
	cols      []exec.Col
	needed    []int
	lo, hi    int64

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

	pend *exec.Batch // Fill: the batch being copied out, next live row at k
	k    int
}

func newFITSScan(ctx context.Context, st *format.State, t *Table, outCols []int, conjuncts []expr.Expr, lo, hi int64) *fitsScan {
	if ctx == nil {
		ctx = context.Background()
	}
	return &fitsScan{
		ctx:       ctx,
		prof:      qtrace.FromContext(ctx),
		st:        st,
		t:         t,
		outCols:   outCols,
		conjuncts: conjuncts,
		cols:      format.OutputSchema(st.Tbl, outCols),
		needed:    format.NeededColumns(outCols, conjuncts),
		lo:        lo,
		hi:        hi,
		batchSize: st.BatchSize(),
		budget:    -1,
	}
}

// Columns implements exec.Operator.
func (s *fitsScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter.
func (s *fitsScan) SetRowBudget(n int64) { s.budget = n }

// Shard implements format.Part. FITS keeps no statistics.
func (s *fitsScan) Shard() (*format.State, []*stats.Collector) { return s.st, nil }

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
	s.pend, s.k = nil, 0
	if cache := s.st.Cache; cache != nil {
		if s.views == nil {
			s.views = make([]colcache.View, s.st.Tbl.NumColumns())
		}
		for i := range s.views {
			s.views[i] = colcache.View{}
		}
		for _, c := range s.needed {
			s.views[c] = cache.View(c, s.st.Types[c])
		}
	}
	return nil
}

// Close publishes the scan's counters into st (each worker shard flushes
// exactly once).
func (s *fitsScan) Close() error {
	s.st.Counters.Flush(s.prof, &s.c)
	return nil
}

// NextBatch decodes up to one batch of rows, caches the values and
// narrows the selection vector conjunct by conjunct.
func (s *fitsScan) NextBatch() (*exec.Batch, error) {
	if s.batch == nil {
		s.batch = &exec.Batch{Cols: make([][]datum.Datum, s.st.Tbl.NumColumns())}
		s.outBatch = &exec.Batch{Cols: make([][]datum.Datum, len(s.outCols))}
	}
	for {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		if s.row >= s.hi {
			s.st.Rows.Store(s.hi - s.lo)
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
				return nil, fmt.Errorf("fits: %s row %d: %w", s.st.Tbl.Name, s.row+int64(i)+1, err)
			}
			cacheRow := int(s.row - s.lo + int64(i))
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

// Fill implements format.Part: it copies the live rows of the decoded
// batches into b, a worker's freshly allocated message, until it holds n.
func (s *fitsScan) Fill(b *exec.Batch, n int) error {
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
