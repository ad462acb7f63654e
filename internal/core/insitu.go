package core

import (
	"context"
	"fmt"
	"io"

	"nodb/internal/colcache"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/posmap"
	"nodb/internal/qtrace"
	"nodb/internal/scan"
	"nodb/internal/stats"
)

// inSituScan is the raw-file access method (paper §4): a sequential pass
// over the CSV file that
//
//   - tokenizes selectively — per tuple, character scanning stops at the
//     last attribute the query needs (§4.1 "Selective Tokenizing"),
//   - parses selectively — WHERE attributes convert to binary first and
//     SELECT attributes only for qualifying tuples (§4.1 "Selective
//     Parsing" / "Selective Tuple Formation"),
//   - navigates with the positional map — known positions jump straight to
//     an attribute, near misses jump to the closest indexed attribute and
//     tokenize forward or backward from there (§4.2),
//   - records newly discovered positions into the map and parsed values
//     into the binary cache, and feeds statistics collectors (§4.3, §4.4).
type inSituScan struct {
	ctx       context.Context
	prof      *qtrace.Profile // nil unless the query context carries one
	rt        *rawTable
	outCols   []int
	conjuncts []expr.Expr
	conjCols  [][]int // per conjunct, the table ordinals it reads

	cols []exec.Col // output schema

	// c holds this scan's private instrumentation counters; they flush
	// into rt.Counters once, at Close, so the per-tuple hot path never
	// touches shared memory.
	c    format.ScanCounters
	tick int // cancellation check pacing

	// Partition-worker configuration (parallel scan): when section is set,
	// Open scans it instead of opening rt's file; base is the absolute file
	// offset of the section's first byte, and shard suppresses finish's
	// publication into shared state (parallelScan merges shards itself).
	section io.Reader
	base    int64
	shard   bool

	f  iofault.File
	lr *scan.LineReader

	expect int64 // row count the adaptive state predicts; -1 = unknown
	row    int
	rowBuf exec.Row // sparse per-tuple materialization (table width)
	gen    []int    // generation marks for rowBuf validity
	curGen int
	out    exec.Row

	// tupPos is the per-tuple temporary map (paper §4.2 "Pre-fetching"):
	// field start offsets discovered for the current tuple's prefix.
	// tupPos[i] is the start of field i; it grows incrementally so the
	// tuple's characters are scanned at most once regardless of how many
	// columns the query touches.
	tupPos   []uint32
	tupShort bool     // the line ended before the prefix reached a request
	navPos   []uint32 // scratch: boundaries one forward navigation found

	// Per-column scan-lifetime accessors: positional-map cursors and
	// cache views amortize chunk lookups and LRU maintenance across the
	// sequential row order (nil when the structure is disabled). Reads go
	// through the cursors; the runs of positions each tuple's tokenizing
	// discovers are stored through pmWriter.
	pmCursors  []*posmap.Cursor
	pmWriter   *posmap.Writer
	cacheViews []colcache.View

	collectors []*stats.Collector // indexed by column ordinal; nil entries
	collecting bool
	useNearest bool  // consult pm.Nearest (map had content before this scan)
	nearHint   []int // per column: last attribute Nearest resolved to (-1 none)
	needed     []int // distinct table ordinals the query touches
	maxNeeded  int   // highest table ordinal the query touches

	batchSize int
	budget    int64            // LIMIT pushdown row budget; -1 = none
	batcher   *exec.RowBatcher // lazily built by NextBatch, reused per call
}

func newInSituScan(ctx context.Context, rt *rawTable, outCols []int, conjuncts []expr.Expr) *inSituScan {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &inSituScan{
		ctx:       ctx,
		prof:      qtrace.FromContext(ctx),
		rt:        rt,
		outCols:   outCols,
		conjuncts: conjuncts,
		rowBuf:    make(exec.Row, rt.Tbl.NumColumns()),
		gen:       make([]int, rt.Tbl.NumColumns()),
		out:       make(exec.Row, len(outCols)),
		batchSize: rt.BatchSize(),
		budget:    -1,
	}
	s.cols = format.OutputSchema(rt.Tbl, outCols)
	s.conjCols = make([][]int, len(conjuncts))
	for i, c := range conjuncts {
		s.conjCols[i] = expr.DistinctColumns(c)
	}
	s.needed = format.NeededColumns(outCols, conjuncts)
	for _, c := range s.needed {
		if c > s.maxNeeded {
			s.maxNeeded = c
		}
	}
	return s
}

// Columns implements exec.Operator.
func (s *inSituScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter (applied by the batch path).
func (s *inSituScan) SetRowBudget(n int64) {
	s.budget = n
	if s.batcher != nil {
		s.batcher.SetRowBudget(n)
	}
}

// Open starts the sequential file pass and attaches statistics collectors
// for needed columns that lack statistics.
func (s *inSituScan) Open() error {
	if err := s.ctx.Err(); err != nil {
		return err // a partition worker started after the cancel: read nothing
	}
	if s.section != nil {
		s.lr, s.f = scan.NewLineReaderAt(s.section, s.base, s.rt.Env.ScanChunkSize), nil
	} else {
		lr, f, err := scan.OpenFile(s.rt.Tbl.Name, s.rt.Tbl.Path, s.rt.Env.ScanChunkSize)
		if err != nil {
			return format.WrapFileErr(s.rt.Tbl.Name, err)
		}
		if s.prof != nil {
			// Profiled scans read through the IO-attributing wrapper; the raw
			// handle stays in s.f for Close. (Parallel workers read sections
			// of a file the pool wrapped once in start.)
			lr.Release()
			lr = scan.NewLineReader(qtrace.CountReads(s.prof, f), s.rt.Env.ScanChunkSize)
		}
		s.lr, s.f = lr, f
	}
	s.expect = s.rt.Rows.Load()
	s.row = 0
	s.curGen = 0
	for i := range s.gen {
		s.gen[i] = -1
	}
	// The per-column accessor slices below are allocated once per scan
	// operator and refilled on every Open, so repeated opens of the same
	// prepared scan do not re-allocate.
	width := len(s.rowBuf)
	if s.rt.PM != nil && s.rt.RecordAttrs {
		s.rt.PM.BeginScan()
		if s.pmCursors == nil {
			s.pmCursors = make([]*posmap.Cursor, width)
			s.nearHint = make([]int, width)
		}
		for c := 0; c < width; c++ {
			s.pmCursors[c] = s.rt.PM.Cursor(c)
		}
		s.pmWriter = s.rt.PM.Writer()
		// Nearest-neighbor navigation only pays off when earlier queries
		// left positions behind; during the very first scan the per-tuple
		// prefix map is always at least as good.
		s.useNearest = s.rt.PM.Metrics().Pointers > 0
		for i := range s.nearHint {
			s.nearHint[i] = -1
		}
	} else {
		s.pmCursors, s.pmWriter = nil, nil
		s.useNearest = false
	}
	if s.rt.Cache != nil {
		if s.cacheViews == nil {
			s.cacheViews = make([]colcache.View, width)
		}
		for i := range s.cacheViews {
			s.cacheViews[i] = colcache.View{}
		}
		for _, c := range s.needed {
			s.cacheViews[c] = s.rt.Cache.View(c, s.rt.Types[c])
		}
	} else {
		s.cacheViews = nil
	}
	if s.rt.St != nil {
		if s.collectors == nil {
			s.collectors = make([]*stats.Collector, width)
		}
		for i := range s.collectors {
			s.collectors[i] = nil
		}
		s.collecting = false
		for _, c := range s.needed {
			if !s.rt.St.Has(c) {
				s.collectors[c] = stats.NewCollector(s.rt.Types[c], int64(c)+1)
				s.collecting = true
			}
		}
	}
	return nil
}

// Close releases the file handle and publishes the scan's counters
// (per-query profile first — Add zeroes the struct). Parallel worker
// shards each run their own Close, so the shared profile accumulates
// every worker's counters exactly once; the pool's merge folds shard
// counters into the table without touching the profile again.
func (s *inSituScan) Close() error {
	format.FlushProfile(s.prof, &s.c)
	s.rt.Counters.Add(&s.c)
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

// Next produces the next qualifying tuple's output columns. Cancellation
// is observed every 256 input tuples, so even a highly selective predicate
// over a huge file aborts promptly.
func (s *inSituScan) Next() (exec.Row, error) {
	for {
		if s.tick++; s.tick&255 == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
		}
		line, off, err := s.lr.Next()
		if err == io.EOF {
			if ferr := s.finish(); ferr != nil {
				return nil, ferr
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, format.WrapFileErr(s.rt.Tbl.Name, err)
		}
		if s.rt.PM != nil {
			s.rt.PM.RecordTupleStart(s.row, off)
		}
		s.curGen++
		s.c.TuplesParsed++
		s.tupPos = s.tupPos[:0]
		s.tupShort = false

		if s.rt.Env.FullParse {
			// Straw-man path: convert the entire tuple before anything
			// else, as external-files engines do.
			for c := 0; c < len(s.rowBuf); c++ {
				if _, err := s.value(line, c); err != nil {
					return nil, err
				}
			}
		}

		qualifies := true
		for i, conj := range s.conjuncts {
			for _, c := range s.conjCols[i] {
				if _, err := s.value(line, c); err != nil {
					return nil, err
				}
			}
			ok, err := expr.TruthyResult(conj, s.rowBuf)
			if err != nil {
				return nil, err
			}
			if !ok {
				qualifies = false
				break
			}
		}
		if !qualifies {
			s.row++
			continue
		}
		// Selective tuple formation: only now convert the SELECT columns.
		for i, c := range s.outCols {
			v, err := s.value(line, c)
			if err != nil {
				return nil, err
			}
			s.out[i] = v
		}
		s.row++
		return s.out, nil
	}
}

// NextBatch implements exec.BatchOperator: it runs the identical selective
// tokenize/parse/navigate pipeline as Next — so every adaptive structure
// and metric evolves byte-identically — and accumulates qualifying tuples
// into a reused column-major batch (exec.RowBatcher does the packing),
// amortizing the per-tuple operator interface so everything above runs
// vectorized. The batcher only packs; Open/Close stay on the scan itself.
func (s *inSituScan) NextBatch() (*exec.Batch, error) {
	if s.batcher == nil {
		s.batcher = exec.NewRowBatcher(s, s.batchSize)
		if s.budget >= 0 {
			s.batcher.SetRowBudget(s.budget)
		}
	}
	return s.batcher.NextBatch()
}

// rowError locates a parse failure. The row is 0-based and — inside a
// partition worker — partition-local until parallelScan rebases it to the
// absolute file row at the point the error surfaces (all earlier
// partitions have drained by then, so their row counts are final).
type rowError struct {
	tbl, col string
	row      int
	cause    error
}

func (e *rowError) Error() string {
	return fmt.Sprintf("core: %s row %d column %s: %v", e.tbl, e.row+1, e.col, e.cause)
}

func (e *rowError) Unwrap() error { return e.cause }

// value returns the datum of table ordinal col for the current tuple,
// parsing it from line (or the cache) on first access.
func (s *inSituScan) value(line []byte, col int) (datum.Datum, error) {
	if s.gen[col] == s.curGen {
		return s.rowBuf[col], nil
	}
	if s.cacheViews != nil && s.cacheViews[col].Valid() {
		if v, ok := s.cacheViews[col].Get(s.row); ok {
			s.c.CacheHits++
			s.rowBuf[col] = v
			s.gen[col] = s.curGen
			return v, nil
		}
		s.c.CacheMisses++
	}
	field, ok, fromMap := s.locateField(line, col)
	var v datum.Datum
	if !ok {
		// Short row: missing trailing fields read as NULL.
		s.c.ShortRows++
		v = datum.NewNull(s.rt.Types[col])
	} else {
		var err error
		v, err = datum.ParseBytes(s.rt.Types[col], field)
		if err != nil && fromMap {
			// A stale map offset (file edited in place) can land mid-field
			// and yield garbage bytes: re-tokenize from the line start and
			// retry before declaring a data error.
			if pos, found := s.prefixPos(line, col); found {
				v, err = datum.ParseBytes(s.rt.Types[col], scan.FieldAt(line, pos, s.rt.Tbl.Delimiter))
			} else {
				s.c.ShortRows++
				v, err = datum.NewNull(s.rt.Types[col]), nil
			}
		}
		if err != nil {
			return datum.Datum{}, &rowError{
				tbl: s.rt.Tbl.Name, col: s.rt.Tbl.Columns[col].Name,
				row: s.row, cause: err,
			}
		}
	}
	s.c.FieldsParsed++
	if s.cacheViews != nil && s.cacheViews[col].Valid() {
		s.cacheViews[col].Put(s.row, v)
	}
	if s.collecting {
		if c := s.collectors[col]; c != nil {
			c.Add(v)
		}
	}
	s.rowBuf[col] = v
	s.gen[col] = s.curGen
	return v, nil
}

// locateField finds the bytes of attribute col in line, using the
// positional map when possible and recording what it learns. fromMap
// reports that the bytes were located by trusting a map position; the
// caller uses it to retry a failed parse from the line start, since a
// stale offset (file edited in place) can land mid-field.
func (s *inSituScan) locateField(line []byte, col int) (field []byte, ok, fromMap bool) {
	if s.pmCursors != nil {
		if f, found := s.mapField(line, col); found {
			s.c.FieldsFromMap++
			return f, true, true
		}
	}
	// No trustworthy positional information: extend the per-tuple prefix
	// tokenization up to col, learning every boundary along the way (§4.2
	// "Map Population": PostgresRaw learns as much as possible during each
	// query). The prefix is shared across the tuple's column accesses, so
	// each character is examined at most once.
	pos, found := s.prefixPos(line, col)
	s.c.FieldsFromScan++
	if !found {
		return nil, false, false
	}
	return scan.FieldAt(line, pos, s.rt.Tbl.Delimiter), true, false
}

// mapField resolves col through the positional map: a direct hit, the
// remembered nearest hint, or a nearest-neighbor search. Every failure —
// offset out of bounds, navigation running off the line — reports !ok so
// the caller degrades to re-tokenizing from the line start, rather than
// trusting an entry the current file contents may have outgrown.
func (s *inSituScan) mapField(line []byte, col int) ([]byte, bool) {
	delim := s.rt.Tbl.Delimiter
	if rel, ok := s.pmCursors[col].Get(s.row); ok && int(rel) <= len(line) {
		return scan.FieldAt(line, rel, delim), true
	}
	if !s.useNearest {
		return nil, false
	}
	// Sequential scans resolve to the same neighboring attribute row after
	// row; try the remembered hint before paying for a full
	// nearest-neighbor search.
	if h := s.nearHint[col]; h >= 0 {
		if rel, ok := s.pmCursors[h].Get(s.row); ok && int(rel) <= len(line) {
			pos, ok := s.navigate(line, h, rel, col)
			if ok {
				return scan.FieldAt(line, pos, delim), true
			}
			return nil, false
		}
	}
	if nearAttr, rel, ok := s.rt.PM.Nearest(s.row, col); ok && int(rel) <= len(line) {
		s.nearHint[col] = nearAttr
		if pos, ok := s.navigate(line, nearAttr, rel, col); ok {
			return scan.FieldAt(line, pos, delim), true
		}
	}
	return nil, false
}

// prefixPos returns the start offset of field col, incrementally extending
// the tuple's tokenized prefix: one pass over the bytes between the last
// known boundary and col, then the newly found boundaries go into the
// positional map as one run.
func (s *inSituScan) prefixPos(line []byte, col int) (uint32, bool) {
	if col < len(s.tupPos) {
		return s.tupPos[col], true
	}
	if s.tupShort {
		return 0, false
	}
	known := len(s.tupPos)
	if known == 0 {
		s.tupPos = append(s.tupPos, 0)
	}
	s.tupPos = scan.ExtendPrefix(line, s.rt.Tbl.Delimiter, col, s.tupPos)
	if s.pmWriter != nil {
		s.pmWriter.RecordRow(s.row, known, s.tupPos[known:])
	}
	if col < len(s.tupPos) {
		return s.tupPos[col], true
	}
	s.tupShort = true
	return 0, false
}

// navigate walks from a known attribute position to the requested one,
// recording every intermediate boundary (incremental tokenization in both
// directions, §4.2 "Exploiting the Positional Map"). Forward, the
// boundaries are one run like prefixPos's; backward they are found in
// descending attribute order and recorded one at a time.
func (s *inSituScan) navigate(line []byte, fromAttr int, fromRel uint32, col int) (uint32, bool) {
	delim := s.rt.Tbl.Delimiter
	pos := fromRel
	switch {
	case fromAttr < col:
		s.navPos = scan.ExtendPrefix(line, delim, col-fromAttr, append(s.navPos[:0], fromRel))
		s.pmWriter.RecordRow(s.row, fromAttr+1, s.navPos[1:])
		if len(s.navPos) <= col-fromAttr {
			return 0, false
		}
		pos = s.navPos[col-fromAttr]
	case fromAttr > col:
		for a := fromAttr - 1; a >= col; a-- {
			np, ok := scan.SkipBackward(line, pos, 1, delim)
			if !ok {
				return 0, false
			}
			pos = np
			s.pmCursors[a].Record(s.row, pos)
		}
	}
	return pos, true
}

// finish runs once the scan has seen the whole file: it verifies the
// pass is consistent with the file version the adaptive state was built
// from, then fixes the row count and publishes any newly collected
// statistics. A row-count mismatch or a file that changed mid-scan
// reports ErrFileChanged without publishing — emitted rows may already
// be wrong, and totals from such a pass must never become truth.
func (s *inSituScan) finish() error {
	if s.shard {
		// Partition worker: the shadow table keeps the local row count;
		// collectors stay attached for parallelScan to merge and verify.
		s.rt.Rows.Store(int64(s.row))
		return nil
	}
	if s.expect >= 0 && int64(s.row) != s.expect {
		return fmt.Errorf("core: table %s: scan saw %d rows where adaptive state expected %d: %w",
			s.rt.Tbl.Name, s.row, s.expect, format.ErrFileChanged)
	}
	if !s.rt.FileUnchanged() {
		return fmt.Errorf("core: table %s: file changed during scan: %w",
			s.rt.Tbl.Name, format.ErrFileChanged)
	}
	s.rt.Rows.Store(int64(s.row))
	if s.rt.St != nil {
		format.PublishCollectors(s.rt.St, int64(s.row), s.collectors)
		s.collectors = nil
	}
	return nil
}
