package format

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/iofault"
	"nodb/internal/posmap"
	"nodb/internal/qtrace"
	"nodb/internal/scan"
	"nodb/internal/stats"
)

// LineDecoder is the format-specific part of a line-oriented in-situ scan:
// how to find attribute col in one line of the raw file and convert it.
// Everything else about the scan — reading, cancellation, conjunct-first
// evaluation, caching, statistics, counters, LIMIT budgets, partitioning —
// is the LineScan frame's, identical for every line format.
//
// A decoder belongs to one LineScan and is used by one goroutine.
type LineDecoder interface {
	// Begin runs at the end of every Open, once the frame has attached this
	// pass's positional-map cursors and writer. The decoder resets its
	// per-scan state and keeps s: it reads s.Row, counts into s.C, navigates
	// and records through s.PMCursors / s.PMWriter, and locates errors with
	// s.RowErr.
	Begin(s *LineScan)
	// StartLine sees every line before the frame counts it as a tuple, to
	// reset per-tuple state. Returning false skips the line: it gets no row
	// number and no tuple-start entry (JSONL's blank lines).
	StartLine(line []byte) bool
	// Field locates attribute col of the current line, converts it to the
	// column's type and stores it in *dst, the scan's tuple buffer slot
	// (returning the 40-byte datum by value through this extra call level
	// measured ~7 ns per field, 4-6 % of a cold scan). The frame calls it
	// at most once per (tuple, column), only when the binary cache could
	// not supply the value. A missing attribute is NULL (count
	// qtrace.CtrShortRows in s.C); the decoder counts CtrFieldsFromMap or
	// CtrFieldsFromScan for how it located the bytes.
	Field(line []byte, col int, dst *datum.Datum) error
}

// RowEncoder appends one row in the format's on-disk form — terminated by
// a newline, containing no other — to buf and returns the extended slice.
type RowEncoder func(buf []byte, row []datum.Datum) []byte

// RowError locates a malformed value in a raw file. It travels unchanged
// (wrapped with %w) through the engine, the public API and the
// database/sql driver, so callers reach it with errors.As.
type RowError struct {
	Format string // registered format name ("csv", "jsonl")
	Table  string
	Column string // "" when the whole line is malformed
	Row    int    // 1-based line-of-data number in the file
	Cause  error
}

func (e *RowError) Error() string {
	if e.Column == "" {
		return fmt.Sprintf("%s: %s row %d: %v", e.Format, e.Table, e.Row, e.Cause)
	}
	return fmt.Sprintf("%s: %s row %d column %s: %v", e.Format, e.Table, e.Row, e.Column, e.Cause)
}

func (e *RowError) Unwrap() error { return e.Cause }

// LineScan is the raw-file access method of every line-oriented format
// (paper §4): a sequential pass that
//
//   - tokenizes selectively — the decoder examines a line only as far as
//     the attributes the query needs (§4.1 "Selective Tokenizing"),
//   - parses selectively — WHERE attributes convert to binary first and
//     SELECT attributes only for qualifying tuples (§4.1 "Selective
//     Parsing" / "Selective Tuple Formation"),
//   - navigates with the positional map, through the decoder (§4.2),
//   - records tuple starts and newly discovered positions into the map and
//     parsed values into the binary cache, and feeds the column synopses
//     (§4.3, §4.4).
//
// The exported fields are the decoder's view of the scan.
type LineScan struct {
	// St is the table being scanned (a private shard in a partition worker).
	St *State
	// Row is the 0-based number of the current tuple — partition-local in a
	// worker (the partitioned scan rebases what escapes: map and cache rows
	// at merge, RowError rows when the error surfaces).
	Row int
	// C holds this scan's private instrumentation counters; they flush
	// into St.Counters once, at Close, so the per-tuple hot path never
	// touches shared memory.
	C qtrace.Counts
	// Needed lists the distinct table ordinals the query touches.
	Needed []int
	// PMCursors and PMWriter are the scan-lifetime positional-map accessors
	// (per column; nil when attribute positions are not recorded): they
	// amortize chunk lookups and LRU maintenance across the sequential row
	// order. Reads go through the cursors; a run of positions one tuple's
	// tokenizing discovers is stored through PMWriter.
	PMCursors []*posmap.Cursor
	PMWriter  *posmap.Writer

	ctx       context.Context
	prof      *qtrace.Profile // nil unless the query context carries one
	dec       LineDecoder
	outCols   []int
	conjuncts []expr.Expr
	conjCols  [][]int // per conjunct, the table ordinals it reads
	cols      []exec.Col

	tick int // cancellation check pacing

	// Partition-worker configuration: when section is set, Open scans it
	// instead of opening the table's file; base is the absolute file offset
	// of the section's first byte, and shard suppresses finish's publication
	// into shared state (the partitioned scan merges shards itself).
	section io.Reader
	base    int64
	shard   bool

	f  iofault.File
	lr *scan.LineReader

	expect int64    // row count the adaptive state predicts; -1 = unknown
	rowBuf exec.Row // sparse per-tuple materialization (table width)
	gen    []int    // generation marks for rowBuf validity
	curGen int
	eof    bool // finish ran cleanly: the input is exhausted

	cacheViews []colcache.View
	syns       []*stats.Synopsis // per column ordinal: what the scan feeds; nil = none
	off        int64             // the current tuple's start offset

	batchSize int
	budget    int64 // LIMIT pushdown row budget; -1 = none
	produced  int64 // rows delivered by NextBatch
	batch     *exec.Batch
}

func newLineScan(ctx context.Context, st *State, outCols []int, conjuncts []expr.Expr, dec LineDecoder) *LineScan {
	if ctx == nil {
		ctx = context.Background()
	}
	width := st.Tbl.NumColumns()
	s := &LineScan{
		St:        st,
		Needed:    NeededColumns(outCols, conjuncts),
		ctx:       ctx,
		prof:      qtrace.FromContext(ctx),
		dec:       dec,
		outCols:   outCols,
		conjuncts: conjuncts,
		conjCols:  make([][]int, len(conjuncts)),
		cols:      OutputSchema(st.Tbl, outCols),
		rowBuf:    make(exec.Row, width),
		gen:       make([]int, width),
		batchSize: st.BatchSize(),
		budget:    -1,
	}
	for i, c := range conjuncts {
		s.conjCols[i] = expr.DistinctColumns(c)
	}
	return s
}

// Columns implements exec.Operator.
func (s *LineScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter.
func (s *LineScan) SetRowBudget(n int64) { s.budget = n }

// RowErr locates cause at the current tuple; col < 0 blames the whole line.
func (s *LineScan) RowErr(col int, cause error) error {
	e := &RowError{Format: s.St.Tbl.Format.String(), Table: s.St.Tbl.Name, Row: s.Row + 1, Cause: cause}
	if col >= 0 {
		e.Column = s.St.Tbl.Columns[col].Name
	}
	return e
}

// Open starts the sequential file pass and attaches the needed columns'
// synopses when statistics are on.
func (s *LineScan) Open() error {
	if err := s.ctx.Err(); err != nil {
		return err // a partition worker started after the cancel: read nothing
	}
	st := s.St
	if s.section != nil {
		s.lr, s.f = scan.NewLineReaderAt(s.section, s.base, st.Env.ScanChunkSize), nil
	} else {
		lr, f, err := scan.OpenFile(st.Tbl.Name, st.Tbl.Path, st.Env.ScanChunkSize)
		if err != nil {
			return WrapFileErr(st.Tbl.Name, err)
		}
		if s.prof != nil {
			// Profiled scans read through the IO-attributing wrapper; the raw
			// handle stays in s.f for Close. (Partition workers read sections
			// of a file the partitioned scan wrapped once in start.)
			lr.Release()
			lr = scan.NewLineReader(qtrace.CountReads(s.prof, f), st.Env.ScanChunkSize)
		}
		s.lr, s.f = lr, f
	}
	s.expect = st.Rows.Load()
	s.Row = 0
	s.curGen = 0
	s.eof = false
	s.produced = 0
	for i := range s.gen {
		s.gen[i] = -1
	}
	// The per-column accessor slices below are allocated once per scan
	// operator and refilled on every Open, so repeated opens of the same
	// prepared scan do not re-allocate.
	width := len(s.rowBuf)
	if st.PM != nil && st.RecordAttrs {
		st.PM.BeginScan()
		if s.PMCursors == nil {
			s.PMCursors = make([]*posmap.Cursor, width)
		}
		for c := 0; c < width; c++ {
			s.PMCursors[c] = st.PM.Cursor(c)
		}
		s.PMWriter = st.PM.Writer()
	} else {
		s.PMCursors, s.PMWriter = nil, nil
	}
	if st.Cache != nil {
		if s.cacheViews == nil {
			s.cacheViews = make([]colcache.View, width)
		}
		for i := range s.cacheViews {
			s.cacheViews[i] = colcache.View{}
		}
		for _, c := range s.Needed {
			s.cacheViews[c] = st.Cache.View(c, st.Types[c])
		}
	} else {
		s.cacheViews = nil
	}
	if st.Env.Statistics {
		if s.syns == nil {
			s.syns = make([]*stats.Synopsis, width)
		}
		for _, c := range s.Needed {
			s.syns[c] = st.Dir.Feed(c, st.Types[c])
		}
	}
	s.dec.Begin(s)
	return nil
}

// Close releases the file handle and publishes the scan's counters.
// Partition worker shards each run their own Close, so the shared profile
// accumulates every worker's counters exactly once; the partitioned merge
// folds shard counters into the table without touching the profile again.
func (s *LineScan) Close() error {
	s.St.Counters.Flush(s.prof, &s.C)
	if s.lr != nil {
		s.lr.Release()
		s.lr = nil
	}
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

// NextBatch packs the next qualifying tuples into a reused batch of at
// most the batch size, never exceeding the remaining row budget.
func (s *LineScan) NextBatch() (*exec.Batch, error) {
	target := s.batchSize
	if s.budget >= 0 {
		rem := s.budget - s.produced
		if rem <= 0 {
			return nil, io.EOF
		}
		if int64(target) > rem {
			target = int(rem)
		}
	}
	if s.batch == nil {
		s.batch = exec.NewBatch(len(s.outCols), s.batchSize)
	}
	s.batch.Reset()
	err := s.Fill(s.batch, target)
	if err == io.EOF && s.batch.N > 0 {
		err = nil // the final rows; the next call reports EOF
	}
	if err != nil {
		return nil, err
	}
	s.produced += int64(s.batch.N)
	return s.batch, nil
}

// Fill appends qualifying tuples' output columns to b until it holds
// target rows. It returns io.EOF once the input is exhausted, with b
// holding whatever the last call packed. (It makes a LineScan a
// partition worker's Part.)
func (s *LineScan) Fill(b *exec.Batch, target int) error {
	for b.N < target {
		if err := s.step(); err != nil {
			return err
		}
		for i, c := range s.outCols {
			b.Cols[i] = append(b.Cols[i], s.rowBuf[c])
		}
		b.N++
	}
	return nil
}

// Shard implements Part: the State the scan records into.
func (s *LineScan) Shard() *State { return s.St }

// step runs the selective pipeline up to the next qualifying tuple, whose
// output columns it leaves in rowBuf. Cancellation is observed every 256
// input lines, so even a highly selective predicate over a huge file
// aborts promptly.
func (s *LineScan) step() error {
	if s.eof {
		return io.EOF
	}
	for {
		if s.tick++; s.tick&255 == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		line, off, err := s.lr.Next()
		if err == io.EOF {
			if ferr := s.finish(); ferr != nil {
				return ferr
			}
			s.eof = true
			return io.EOF
		}
		if err != nil {
			return WrapFileErr(s.St.Tbl.Name, err)
		}
		if !s.dec.StartLine(line) {
			continue
		}
		if s.St.PM != nil {
			s.St.PM.RecordTupleStart(s.Row, off)
		}
		s.off = off
		s.curGen++
		s.C[qtrace.CtrTuplesParsed]++

		if s.St.Env.FullParse {
			// Straw-man path: convert the entire tuple before anything
			// else, as external-files engines do.
			for c := 0; c < len(s.rowBuf); c++ {
				if err := s.fill(line, c); err != nil {
					return err
				}
			}
		}

		qualifies := true
		for i, conj := range s.conjuncts {
			for _, c := range s.conjCols[i] {
				if err := s.fill(line, c); err != nil {
					return err
				}
			}
			ok, err := expr.TruthyResult(conj, s.rowBuf)
			if err != nil {
				return err
			}
			if !ok {
				qualifies = false
				break
			}
		}
		if !qualifies {
			s.Row++
			continue
		}
		// Selective tuple formation: only now convert the SELECT columns.
		for _, c := range s.outCols {
			if err := s.fill(line, c); err != nil {
				return err
			}
		}
		s.Row++
		return nil
	}
}

// fill makes rowBuf[col] hold the current tuple's value of table ordinal
// col, taking it from the cache or the decoder on first access.
func (s *LineScan) fill(line []byte, col int) error {
	if s.gen[col] == s.curGen {
		return nil
	}
	cached := s.cacheViews != nil && s.cacheViews[col].Valid()
	if cached {
		if v, ok := s.cacheViews[col].Get(s.Row); ok {
			s.C[qtrace.CtrCacheHits]++
			s.rowBuf[col] = v
			s.gen[col] = s.curGen
			s.feed(col)
			return nil
		}
		s.C[qtrace.CtrCacheMisses]++
	}
	if err := s.dec.Field(line, col, &s.rowBuf[col]); err != nil {
		return err
	}
	s.C[qtrace.CtrFieldsParsed]++
	if cached {
		s.cacheViews[col].Put(s.Row, s.rowBuf[col])
	}
	s.gen[col] = s.curGen
	s.feed(col)
	return nil
}

// feed gives rowBuf[col] to the column's synopsis when that covers every
// row before the current one: the first row the scan does not fill for
// col ends the feed.
func (s *LineScan) feed(col int) {
	if s.syns != nil {
		if syn := s.syns[col]; syn != nil && syn.Rows() == int64(s.Row) {
			syn.Add(uint64(s.off), s.rowBuf[col])
		}
	}
}

// finish runs once the scan has seen the whole file: it verifies the
// pass is consistent with the file version the adaptive state was built
// from, then fixes the row count. A row-count mismatch or a file that
// changed mid-scan reports ErrFileChanged without publishing — emitted
// rows may already be wrong, and totals from such a pass must never
// become truth.
func (s *LineScan) finish() error {
	st := s.St
	if s.shard {
		// Partition worker: the shard table keeps the local row count for
		// the partitioned merge to verify.
		st.Rows.Store(int64(s.Row))
		return nil
	}
	if s.expect >= 0 && int64(s.Row) != s.expect {
		return fmt.Errorf("format: table %s: scan saw %d rows where adaptive state expected %d: %w",
			st.Tbl.Name, s.Row, s.expect, ErrFileChanged)
	}
	if !st.FileUnchanged() {
		return fmt.Errorf("format: table %s: file changed during scan: %w", st.Tbl.Name, ErrFileChanged)
	}
	st.Rows.Store(int64(s.Row))
	return nil
}

// OpenLineScan is a line-oriented format's whole Source.OpenScan: the
// standard access-method decision (NewScan) over the LineScan frame, with
// newDecoder supplying one decoder per pass — sequential, or one per
// partition worker of a cold parallel pass.
func (st *State) OpenLineScan(ctx context.Context, cols []int, conjuncts []expr.Expr, newDecoder func() LineDecoder) *GuardedScan {
	return st.NewScan(ctx, cols, conjuncts, ScanPlan{
		Seq: func(ctx context.Context) exec.Operator {
			return newLineScan(ctx, st, cols, conjuncts, newDecoder())
		},
		Par: func(ctx context.Context, workers int) exec.Operator {
			return NewPartitionedLineScan(ctx, st, cols, conjuncts, workers, newDecoder)
		},
	})
}

// NewPartitionedLineScan is the partitioned line access method, built
// directly below the access-method decision and the retry layer
// (State.OpenLineScan is the way in for adapters): the file splits into
// newline-aligned byte ranges (scan.Split), each scanned by the exact
// LineScan pipeline over a private shard (State.Shard), so the per-tuple
// hot path takes no locks. It is only sound on a cold table
// (State.ScanWorkers); workers must be >= 2.
func NewPartitionedLineScan(ctx context.Context, st *State, outCols []int, conjuncts []expr.Expr, workers int, newDecoder func() LineDecoder) exec.Operator {
	return st.NewPartitionedScan(ctx, outCols, workers, func(workers int) ([]Part, func() error, error) {
		name := st.Tbl.Name
		f, err := iofault.Open(st.Tbl.Path)
		if err != nil {
			return nil, nil, WrapFileErr(name, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, WrapFileErr(name, err)
		}
		ranges, err := scan.Split(f, fi.Size(), workers)
		if err != nil {
			f.Close()
			return nil, nil, WrapFileErr(name, err)
		}
		// One IO-attributing wrapper serves every worker's SectionReader:
		// the underlying ReadAt is stateless and the profile's counters are
		// atomic, so concurrent positioned reads attribute safely.
		var ra io.ReaderAt = f
		if prof := qtrace.FromContext(ctx); prof != nil {
			ra = qtrace.CountReaderAt(prof, f)
		}
		parts := make([]Part, len(ranges))
		for i, r := range ranges {
			s := newLineScan(ctx, st.Shard(), outCols, conjuncts, newDecoder())
			s.shard = true
			s.section = io.NewSectionReader(ra, r.Start, r.End-r.Start)
			s.base = r.Start
			parts[i] = s
		}
		return parts, f.Close, nil
	})
}

// AppendRows is a line-oriented format's whole Appender.Append: it appends
// rows, each rendered by encode, to the raw file under the exclusive table
// lock, so the write cannot interleave with a scan reading the file. The
// in-situ state observes the growth on the next query (Refresh treats
// growth as an append, paper §4.5). A failed write truncates the file back
// to its pre-append size (AppendGuarded), so a partial row never becomes a
// permanently torn line.
func (st *State) AppendRows(ctx context.Context, rows [][]datum.Datum, encode RowEncoder) error {
	if err := st.Lk.Lock(ctx); err != nil {
		return err
	}
	defer st.Lk.Unlock()
	f, err := iofault.OpenAppend(st.Tbl.Path)
	if err != nil {
		return WrapFileErr(st.Tbl.Name, err)
	}
	defer f.Close()
	if err := AppendGuarded(f, st.Tbl.Name, func() error {
		w := bufio.NewWriterSize(f, 1<<16)
		var buf []byte
		for _, row := range rows {
			buf = encode(buf[:0], row)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	if mgr := st.Env.Sidecar; mgr != nil {
		// Journal the post-append fingerprint (exclusive lock still held),
		// so a checkpoint taken before this INSERT stays valid as a known
		// append instead of forcing a re-hash on the next open.
		mgr.JournalAppend(st)
	}
	return nil
}
