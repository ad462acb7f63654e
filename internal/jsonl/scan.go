package jsonl

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"

	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/qtrace"
)

// decoder is the JSONL half of the in-situ scan (format.LineScan is the
// other): it locates one top-level field of a line's object and converts
// its value.
//
//   - Tokenizing is selective — the object walk stops as soon as every
//     field the query needs has been located (paper §4.1 transplanted: keys
//     past the last needed one are never examined).
//   - A value offset recorded in the positional map jumps straight to the
//     field, skipping the object walk entirely.
//   - Every schema field the walk passes is recorded into the map.
type decoder struct {
	s      *format.LineScan
	colIdx map[string]int // lower-case field name -> column ordinal

	// Per-tuple field map: tupOff[c] is the value start offset of column c
	// within the current line, valid when tupGen[c] == curGen. tokenized
	// marks that the object walk ran for this line (absent fields are then
	// NULL, not unknown).
	tupOff    []int32
	tupGen    []int
	curGen    int
	tokenized bool

	neededSet []bool
	strBuf    []byte
	keyBuf    []byte // lowerKey scratch (distinct from strBuf: keys may alias it)
}

// Begin implements format.LineDecoder.
func (d *decoder) Begin(s *format.LineScan) {
	if d.s == nil {
		width := s.St.Tbl.NumColumns()
		d.s = s
		d.tupOff = make([]int32, width)
		d.tupGen = make([]int, width)
		d.neededSet = make([]bool, width)
		for _, c := range s.Needed {
			d.neededSet[c] = true
		}
	}
	d.curGen = 0
	for i := range d.tupGen {
		d.tupGen[i] = -1
	}
}

// StartLine implements format.LineDecoder: blank lines are not tuples.
func (d *decoder) StartLine(line []byte) bool {
	if isBlank(line) {
		return false
	}
	d.curGen++
	d.tokenized = false
	return true
}

// Field implements format.LineDecoder, resolving col from the positional
// map or the (selective) object walk.
func (d *decoder) Field(line []byte, col int, dst *datum.Datum) error {
	s := d.s
	// Positional map: a recorded value offset jumps straight to the field.
	if s.PMCursors != nil {
		if rel, ok := s.PMCursors[col].Get(s.Row); ok && int(rel) < len(line) {
			if v, err := d.parseValueAt(line, int(rel), col); err == nil {
				s.C[qtrace.CtrFieldsFromMap]++
				*dst = v
				return nil
			}
			// A stale map offset (file edited in place) can land mid-value
			// and fail to parse: degrade to the object walk below, which
			// re-locates the field from the line start. Genuine data errors
			// fail again there and surface with full context.
		}
	}
	if !d.tokenized {
		if err := d.tokenizeLine(line); err != nil {
			return err
		}
		d.tokenized = true
	}
	s.C[qtrace.CtrFieldsFromScan]++
	if d.tupGen[col] != d.curGen {
		// Field absent from this object: NULL, like a short CSV row.
		s.C[qtrace.CtrShortRows]++
		*dst = datum.NewNull(s.St.Types[col])
		return nil
	}
	var err error
	*dst, err = d.parseValueAt(line, int(d.tupOff[col]), col)
	return err
}

// tokenizeLine walks the top-level object, recording the value offset of
// every schema field it passes (map population is free for fields on the
// way) and stopping as soon as all needed fields of this row are located —
// the selective-tokenizing idea, with JSON keys in place of delimiters.
func (d *decoder) tokenizeLine(line []byte) error {
	s := d.s
	remaining := 0
	for _, c := range s.Needed {
		if d.tupGen[c] != d.curGen {
			remaining++
		}
	}
	i := skipWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return s.RowErr(-1, fmt.Errorf("not a JSON object"))
	}
	i = skipWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		return nil // empty object: every field is absent
	}
	//nodblint:ignore ctxloop bounded by the keys of one line's object, not row iteration
	for {
		key, next, err := parseJSONString(line, i, &d.strBuf)
		if err != nil {
			return s.RowErr(-1, err)
		}
		i = skipWS(line, next)
		if i >= len(line) || line[i] != ':' {
			return s.RowErr(-1, fmt.Errorf("expected ':' after key %q", key))
		}
		i = skipWS(line, i+1)
		valStart := i
		// The string conversion sits directly in the map index expression,
		// so it does not allocate.
		if ci, ok := d.colIdx[string(lowerKey(key, &d.keyBuf))]; ok && d.tupGen[ci] != d.curGen {
			d.tupOff[ci] = int32(valStart)
			d.tupGen[ci] = d.curGen
			if s.PMCursors != nil {
				s.PMCursors[ci].Record(s.Row, uint32(valStart))
			}
			if d.neededSet[ci] {
				remaining--
			}
		}
		end, err := skipJSONValue(line, i)
		if err != nil {
			return s.RowErr(-1, err)
		}
		if remaining == 0 {
			return nil // selective stop: everything the query needs is located
		}
		i = skipWS(line, end)
		if i >= len(line) {
			return s.RowErr(-1, fmt.Errorf("unterminated object"))
		}
		switch line[i] {
		case '}':
			return nil
		case ',':
			i = skipWS(line, i+1)
		default:
			return s.RowErr(-1, fmt.Errorf("unexpected %q in object", line[i]))
		}
	}
}

// parseValueAt converts the JSON value starting at off into the column's
// datum type: null -> NULL, strings through the type parser (dates, text,
// numeric strings), numbers and booleans through datum.ParseBytes.
func (d *decoder) parseValueAt(line []byte, off, col int) (datum.Datum, error) {
	s := d.s
	typ := s.St.Types[col]
	if off >= len(line) {
		return datum.Datum{}, s.RowErr(col, fmt.Errorf("value offset out of range"))
	}
	switch c := line[off]; c {
	case '"':
		sv, _, err := parseJSONString(line, off, &d.strBuf)
		if err != nil {
			return datum.Datum{}, s.RowErr(col, err)
		}
		v, err := datum.ParseBytes(typ, sv)
		if err != nil {
			return datum.Datum{}, s.RowErr(col, err)
		}
		return v, nil
	case 'n':
		if hasLiteral(line, off, "null") {
			return datum.NewNull(typ), nil
		}
		return datum.Datum{}, s.RowErr(col, fmt.Errorf("bad literal"))
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
			return datum.Datum{}, s.RowErr(col, fmt.Errorf("empty value"))
		}
		v, err := datum.ParseBytes(typ, line[off:end])
		if err != nil {
			return datum.Datum{}, s.RowErr(col, err)
		}
		return v, nil
	}
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
