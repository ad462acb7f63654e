package jsonl

import (
	"context"
	"fmt"
	"io"
	"unicode/utf16"
	"unicode/utf8"

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

// jsonlScan is the JSONL in-situ access method: a sequential pass that
//
//   - tokenizes selectively — the object walk stops as soon as every field
//     the query needs has been located (paper §4.1 transplanted: keys past
//     the last needed one are never examined),
//   - parses selectively — WHERE fields convert first, SELECT fields only
//     for qualifying tuples,
//   - navigates with the positional map — a recorded value offset jumps
//     straight to the field, skipping the object walk entirely,
//   - records discovered offsets into the map and parsed values into the
//     binary cache.
type jsonlScan struct {
	ctx       context.Context
	prof      *qtrace.Profile // nil unless the query context carries one
	src       *Source
	outCols   []int
	conjuncts []expr.Expr
	conjCols  [][]int

	cols []exec.Col

	c    format.ScanCounters
	tick int

	// Partition-worker configuration (see the CSV engine): when section is
	// set, Open scans it instead of opening the table's file; base is the
	// absolute offset of its first byte; shard suppresses publication.
	section io.Reader
	base    int64
	shard   bool

	f  iofault.File
	lr *scan.LineReader

	expect int64 // row count the adaptive state predicts; -1 = unknown
	row    int
	rowBuf exec.Row
	gen    []int // generation marks for rowBuf validity
	curGen int
	out    exec.Row

	// Per-tuple field map: tupOff[c] is the value start offset of column c
	// within the current line, valid when tupGen[c] == curGen. tokenized
	// marks that the object walk ran for this line (absent fields are then
	// NULL, not unknown).
	tupOff    []int32
	tupGen    []int
	tokenized bool

	pmCursors  []*posmap.Cursor
	cacheViews []colcache.View
	collectors []*stats.Collector // indexed by column ordinal; nil entries
	collecting bool
	needed     []int
	neededSet  []bool
	strBuf     []byte
	keyBuf     []byte // lowerKey scratch (distinct from strBuf: keys may alias it)

	batchSize int
	budget    int64
	batcher   *exec.RowBatcher
}

func newJSONLScan(ctx context.Context, src *Source, outCols []int, conjuncts []expr.Expr) *jsonlScan {
	if ctx == nil {
		ctx = context.Background()
	}
	width := src.Tbl.NumColumns()
	s := &jsonlScan{
		ctx:       ctx,
		prof:      qtrace.FromContext(ctx),
		src:       src,
		outCols:   outCols,
		conjuncts: conjuncts,
		rowBuf:    make(exec.Row, width),
		gen:       make([]int, width),
		tupOff:    make([]int32, width),
		tupGen:    make([]int, width),
		out:       make(exec.Row, len(outCols)),
		batchSize: src.BatchSize(),
		budget:    -1,
	}
	s.cols = format.OutputSchema(src.Tbl, outCols)
	s.conjCols = make([][]int, len(conjuncts))
	for i, c := range conjuncts {
		s.conjCols[i] = expr.DistinctColumns(c)
	}
	s.needed = format.NeededColumns(outCols, conjuncts)
	s.neededSet = make([]bool, width)
	for _, c := range s.needed {
		s.neededSet[c] = true
	}
	return s
}

// Columns implements exec.Operator.
func (s *jsonlScan) Columns() []exec.Col { return s.cols }

// SetRowBudget implements exec.RowBudgeter (applied by the batch path).
func (s *jsonlScan) SetRowBudget(n int64) {
	s.budget = n
	if s.batcher != nil {
		s.batcher.SetRowBudget(n)
	}
}

// Open starts the sequential pass.
func (s *jsonlScan) Open() error {
	if s.section != nil {
		s.lr, s.f = scan.NewLineReaderAt(s.section, s.base, s.src.Env.ScanChunkSize), nil
	} else {
		lr, f, err := scan.OpenFile(s.src.Tbl.Name, s.src.Tbl.Path, s.src.Env.ScanChunkSize)
		if err != nil {
			return format.WrapFileErr(s.src.Tbl.Name, err)
		}
		if s.prof != nil {
			// Profiled scans read through the IO-attributing wrapper; the raw
			// handle stays in s.f for Close.
			lr.Release()
			lr = scan.NewLineReader(qtrace.CountReads(s.prof, f), s.src.Env.ScanChunkSize)
		}
		s.lr, s.f = lr, f
	}
	s.expect = s.src.Rows.Load()
	s.row = 0
	s.curGen = 0
	for i := range s.gen {
		s.gen[i] = -1
		s.tupGen[i] = -1
	}
	width := len(s.rowBuf)
	if s.src.PM != nil && s.src.RecordAttrs {
		s.src.PM.BeginScan()
		if s.pmCursors == nil {
			s.pmCursors = make([]*posmap.Cursor, width)
		}
		for c := 0; c < width; c++ {
			s.pmCursors[c] = s.src.PM.Cursor(c)
		}
	} else {
		s.pmCursors = nil
	}
	if s.src.Cache != nil {
		if s.cacheViews == nil {
			s.cacheViews = make([]colcache.View, width)
		}
		for i := range s.cacheViews {
			s.cacheViews[i] = colcache.View{}
		}
		for _, c := range s.needed {
			s.cacheViews[c] = s.src.Cache.View(c, s.src.Types[c])
		}
	} else {
		s.cacheViews = nil
	}
	// Statistics collectors attach for needed columns without stats, so
	// stats-driven conjunct ordering covers JSONL tables like every other
	// format (mirrors the CSV in-situ scan).
	if s.src.St != nil {
		if s.collectors == nil {
			s.collectors = make([]*stats.Collector, width)
		}
		for i := range s.collectors {
			s.collectors[i] = nil
		}
		s.collecting = false
		for _, c := range s.needed {
			if !s.src.St.Has(c) {
				s.collectors[c] = stats.NewCollector(s.src.Types[c], int64(c)+1)
				s.collecting = true
			}
		}
	}
	return nil
}

// Close releases the file handle and publishes the scan's counters
// (per-query profile first — Add zeroes the struct; worker shards each
// flush once, so parallel profiles merge without double counting).
func (s *jsonlScan) Close() error {
	format.FlushProfile(s.prof, &s.c)
	s.src.Counters.Add(&s.c)
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
// is observed every 256 input tuples.
func (s *jsonlScan) Next() (exec.Row, error) {
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
			return nil, format.WrapFileErr(s.src.Tbl.Name, err)
		}
		if isBlank(line) {
			continue
		}
		if s.src.PM != nil {
			s.src.PM.RecordTupleStart(s.row, off)
		}
		s.curGen++
		s.c.TuplesParsed++
		s.tokenized = false

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

// NextBatch implements exec.BatchOperator by packing the identical
// selective pipeline into column-major batches.
func (s *jsonlScan) NextBatch() (*exec.Batch, error) {
	if s.batcher == nil {
		s.batcher = exec.NewRowBatcher(s, s.batchSize)
		if s.budget >= 0 {
			s.batcher.SetRowBudget(s.budget)
		}
	}
	return s.batcher.NextBatch()
}

// rowError locates a parse failure; partition workers report local rows
// that the parallel scan rebases when the error surfaces.
type rowError struct {
	tbl, col string
	row      int
	cause    error
}

func (e *rowError) Error() string {
	if e.col == "" {
		return fmt.Sprintf("jsonl: %s row %d: %v", e.tbl, e.row+1, e.cause)
	}
	return fmt.Sprintf("jsonl: %s row %d field %s: %v", e.tbl, e.row+1, e.col, e.cause)
}

func (e *rowError) Unwrap() error { return e.cause }

func (s *jsonlScan) errAt(col int, cause error) error {
	name := ""
	if col >= 0 {
		name = s.src.Tbl.Columns[col].Name
	}
	return &rowError{tbl: s.src.Tbl.Name, col: name, row: s.row, cause: cause}
}

// value returns the datum of column col for the current tuple, resolving
// it from the cache, the positional map, or the (selective) object walk.
func (s *jsonlScan) value(line []byte, col int) (datum.Datum, error) {
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
	var v datum.Datum
	var have bool
	// Positional map: a recorded value offset jumps straight to the field.
	if s.pmCursors != nil {
		if rel, ok := s.pmCursors[col].Get(s.row); ok && int(rel) < len(line) {
			if pv, err := s.parseValueAt(line, int(rel), col); err == nil {
				s.c.FieldsFromMap++
				v = pv
				have = true
			}
			// A stale map offset (file edited in place) can land mid-value
			// and fail to parse: degrade to the object walk below, which
			// re-locates the field from the line start. Genuine data errors
			// fail again there and surface with full context.
		}
	}
	if !have {
		if !s.tokenized {
			if err := s.tokenizeLine(line); err != nil {
				return datum.Datum{}, err
			}
			s.tokenized = true
		}
		s.c.FieldsFromScan++
		if s.tupGen[col] == s.curGen {
			var err error
			v, err = s.parseValueAt(line, int(s.tupOff[col]), col)
			if err != nil {
				return datum.Datum{}, err
			}
		} else {
			// Field absent from this object: NULL, like a short CSV row.
			s.c.ShortRows++
			v = datum.NewNull(s.src.Types[col])
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

// tokenizeLine walks the top-level object, recording the value offset of
// every schema field it passes (map population is free for fields on the
// way) and stopping as soon as all needed fields of this row are located —
// the selective-tokenizing idea, with JSON keys in place of delimiters.
func (s *jsonlScan) tokenizeLine(line []byte) error {
	remaining := 0
	for _, c := range s.needed {
		if s.tupGen[c] != s.curGen {
			remaining++
		}
	}
	i := skipWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return s.errAt(-1, fmt.Errorf("not a JSON object"))
	}
	i = skipWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		return nil // empty object: every field is absent
	}
	//nodblint:ignore ctxloop bounded by the keys of one line's object, not row iteration
	for {
		key, next, err := parseJSONString(line, i, &s.strBuf)
		if err != nil {
			return s.errAt(-1, err)
		}
		i = skipWS(line, next)
		if i >= len(line) || line[i] != ':' {
			return s.errAt(-1, fmt.Errorf("expected ':' after key %q", key))
		}
		i = skipWS(line, i+1)
		valStart := i
		// The string conversion sits directly in the map index expression,
		// so it does not allocate.
		if ci, ok := s.src.colIdx[string(lowerKey(key, &s.keyBuf))]; ok && s.tupGen[ci] != s.curGen {
			s.tupOff[ci] = int32(valStart)
			s.tupGen[ci] = s.curGen
			if s.pmCursors != nil {
				s.pmCursors[ci].Record(s.row, uint32(valStart))
			}
			if s.neededSet[ci] {
				remaining--
			}
		}
		end, err := skipJSONValue(line, i)
		if err != nil {
			return s.errAt(-1, err)
		}
		if remaining == 0 {
			return nil // selective stop: everything the query needs is located
		}
		i = skipWS(line, end)
		if i >= len(line) {
			return s.errAt(-1, fmt.Errorf("unterminated object"))
		}
		switch line[i] {
		case '}':
			return nil
		case ',':
			i = skipWS(line, i+1)
		default:
			return s.errAt(-1, fmt.Errorf("unexpected %q in object", line[i]))
		}
	}
}

// parseValueAt converts the JSON value starting at off into the column's
// datum type: null -> NULL, strings through the type parser (dates, text,
// numeric strings), numbers and booleans through datum.ParseBytes.
func (s *jsonlScan) parseValueAt(line []byte, off, col int) (datum.Datum, error) {
	typ := s.src.Types[col]
	if off >= len(line) {
		return datum.Datum{}, s.errAt(col, fmt.Errorf("value offset out of range"))
	}
	switch c := line[off]; c {
	case '"':
		sv, _, err := parseJSONString(line, off, &s.strBuf)
		if err != nil {
			return datum.Datum{}, s.errAt(col, err)
		}
		v, err := datum.ParseBytes(typ, sv)
		if err != nil {
			return datum.Datum{}, s.errAt(col, err)
		}
		return v, nil
	case 'n':
		if hasLiteral(line, off, "null") {
			return datum.NewNull(typ), nil
		}
		return datum.Datum{}, s.errAt(col, fmt.Errorf("bad literal"))
	default:
		// Numbers, true, false: the terminator-delimited token feeds the
		// type parser directly.
		end := off
		for end < len(line) {
			b := line[end]
			if b == ',' || b == '}' || b == ']' || b == ' ' || b == '\t' || b == '\r' {
				break
			}
			end++
		}
		if end == off {
			return datum.Datum{}, s.errAt(col, fmt.Errorf("empty value"))
		}
		v, err := datum.ParseBytes(typ, line[off:end])
		if err != nil {
			return datum.Datum{}, s.errAt(col, err)
		}
		return v, nil
	}
}

// finish runs once the scan has seen the whole file: it verifies the
// pass is consistent with the file version the adaptive state was built
// from, then fixes the row count and publishes newly collected
// statistics (shards keep theirs local; the parallel merge publishes).
// A row-count mismatch or a file that changed mid-scan reports
// ErrFileChanged without publishing.
func (s *jsonlScan) finish() error {
	if s.shard {
		// Partition worker: collectors stay attached for the parallel
		// merge to fold and verify.
		s.src.Rows.Store(int64(s.row))
		return nil
	}
	if s.expect >= 0 && int64(s.row) != s.expect {
		return fmt.Errorf("jsonl: table %s: scan saw %d rows where adaptive state expected %d: %w",
			s.src.Tbl.Name, s.row, s.expect, format.ErrFileChanged)
	}
	if !s.src.FileUnchanged() {
		return fmt.Errorf("jsonl: table %s: file changed during scan: %w",
			s.src.Tbl.Name, format.ErrFileChanged)
	}
	s.src.Rows.Store(int64(s.row))
	if s.src.St != nil {
		format.PublishCollectors(s.src.St, int64(s.row), s.collectors)
		s.collectors = nil
	}
	return nil
}

func isBlank(line []byte) bool {
	for _, b := range line {
		if b != ' ' && b != '\t' && b != '\r' {
			return false
		}
	}
	return true
}

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// hasLiteral reports whether the literal lit starts at b[i] and ends at a
// value boundary.
func hasLiteral(b []byte, i int, lit string) bool {
	if i+len(lit) > len(b) {
		return false
	}
	if string(b[i:i+len(lit)]) != lit {
		return false
	}
	j := i + len(lit)
	if j == len(b) {
		return true
	}
	switch b[j] {
	case ',', '}', ']', ' ', '\t', '\r':
		return true
	}
	return false
}

// lowerKey returns the lower-cased key bytes for map lookup: the key
// itself in the common all-lowercase case, otherwise a copy lowered into
// scratch. Callers index the column map with string(lowerKey(...)) placed
// directly in the map index expression, which Go compiles without
// allocating a string.
func lowerKey(key []byte, scratch *[]byte) []byte {
	for i := 0; i < len(key); i++ {
		if key[i] >= 'A' && key[i] <= 'Z' {
			buf := append((*scratch)[:0], key...)
			for j := range buf {
				if buf[j] >= 'A' && buf[j] <= 'Z' {
					buf[j] += 'a' - 'A'
				}
			}
			*scratch = buf
			return buf
		}
	}
	return key
}

// parseJSONString parses the string starting at b[i] (which must be '"'),
// returning the decoded bytes and the index just past the closing quote.
// Escape-free strings alias b; escaped ones decode into *scratch.
func parseJSONString(b []byte, i int, scratch *[]byte) ([]byte, int, error) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, fmt.Errorf("expected string at offset %d", i)
	}
	j := i + 1
	for j < len(b) && b[j] != '"' && b[j] != '\\' {
		j++
	}
	if j >= len(b) {
		return nil, 0, fmt.Errorf("unterminated string")
	}
	if b[j] == '"' {
		return b[i+1 : j], j + 1, nil
	}
	// Slow path: decode escapes.
	buf := append((*scratch)[:0], b[i+1:j]...)
	for j < len(b) {
		switch b[j] {
		case '"':
			*scratch = buf
			return buf, j + 1, nil
		case '\\':
			j++
			if j >= len(b) {
				return nil, 0, fmt.Errorf("truncated escape")
			}
			switch b[j] {
			case '"', '\\', '/':
				buf = append(buf, b[j])
				j++
			case 'n':
				buf = append(buf, '\n')
				j++
			case 't':
				buf = append(buf, '\t')
				j++
			case 'r':
				buf = append(buf, '\r')
				j++
			case 'b':
				buf = append(buf, '\b')
				j++
			case 'f':
				buf = append(buf, '\f')
				j++
			case 'u':
				r, n, err := decodeUnicodeEscape(b, j-1)
				if err != nil {
					return nil, 0, err
				}
				buf = utf8.AppendRune(buf, r)
				j += n - 1
			default:
				return nil, 0, fmt.Errorf("bad escape \\%c", b[j])
			}
		default:
			buf = append(buf, b[j])
			j++
		}
	}
	return nil, 0, fmt.Errorf("unterminated string")
}

// decodeUnicodeEscape decodes \uXXXX (with surrogate-pair handling)
// starting at b[i] == '\\'; it returns the rune and the escape's byte
// length.
func decodeUnicodeEscape(b []byte, i int) (rune, int, error) {
	if i+6 > len(b) {
		return 0, 0, fmt.Errorf("truncated \\u escape")
	}
	hi, ok := hex4(b[i+2 : i+6])
	if !ok {
		return 0, 0, fmt.Errorf("bad \\u escape")
	}
	r := rune(hi)
	if utf16.IsSurrogate(r) {
		if i+12 <= len(b) && b[i+6] == '\\' && b[i+7] == 'u' {
			if lo, ok := hex4(b[i+8 : i+12]); ok {
				if dec := utf16.DecodeRune(r, rune(lo)); dec != utf8.RuneError {
					return dec, 12, nil
				}
			}
		}
		return utf8.RuneError, 6, nil
	}
	return r, 6, nil
}

func hex4(b []byte) (uint16, bool) {
	var v uint16
	for _, c := range b {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint16(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint16(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= uint16(c-'A') + 10
		default:
			return 0, false
		}
	}
	return v, true
}

// skipJSONValue returns the index just past the JSON value starting at
// b[i], skipping nested objects/arrays and honoring strings.
func skipJSONValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, fmt.Errorf("missing value")
	}
	switch b[i] {
	case '"':
		j := i + 1
		for j < len(b) {
			switch b[j] {
			case '\\':
				j += 2
			case '"':
				return j + 1, nil
			default:
				j++
			}
		}
		return 0, fmt.Errorf("unterminated string")
	case '{', '[':
		depth := 0
		j := i
		for j < len(b) {
			switch b[j] {
			case '"':
				k := j + 1
				for k < len(b) {
					if b[k] == '\\' {
						k += 2
						continue
					}
					if b[k] == '"' {
						break
					}
					k++
				}
				if k >= len(b) {
					return 0, fmt.Errorf("unterminated string")
				}
				j = k + 1
			case '{', '[':
				depth++
				j++
			case '}', ']':
				depth--
				j++
				if depth == 0 {
					return j, nil
				}
			default:
				j++
			}
		}
		return 0, fmt.Errorf("unterminated value")
	default:
		j := i
		for j < len(b) {
			c := b[j]
			if c == ',' || c == '}' || c == ']' || c == ' ' || c == '\t' || c == '\r' {
				break
			}
			j++
		}
		if j == i {
			return 0, fmt.Errorf("empty value")
		}
		return j, nil
	}
}
