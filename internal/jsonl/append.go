package jsonl

import (
	"context"
	"strconv"

	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/schema"
)

// Append implements format.Appender: INSERT serializes each row as one
// JSON object per line — keys are the declared column names, values their
// JSON form (numbers, escaped strings, "YYYY-MM-DD" date strings,
// true/false, null).
func (s *Source) Append(ctx context.Context, rows [][]datum.Datum) error {
	return s.AppendRows(ctx, rows, func(buf []byte, row []datum.Datum) []byte {
		return appendObject(buf, s.Tbl.Columns, row)
	})
}

// appendObject renders one row as a single-line JSON object with a
// trailing newline. Every value — including an escaped string — stays on
// one line, which is what keeps the file valid JSON-Lines.
func appendObject(buf []byte, cols []schema.Column, row []datum.Datum) []byte {
	buf = append(buf, '{')
	for i, d := range row {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, cols[i].Name)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, d)
	}
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSONValue renders one datum in the representation the scanner's
// parseValueAt round-trips: null, bare numbers, true/false, and strings
// (dates as their YYYY-MM-DD form).
func appendJSONValue(buf []byte, d datum.Datum) []byte {
	if d.Null() {
		return append(buf, "null"...)
	}
	switch d.T {
	case datum.Int:
		return strconv.AppendInt(buf, d.Int(), 10)
	case datum.Float:
		return strconv.AppendFloat(buf, d.Float(), 'g', -1, 64)
	case datum.Bool:
		if d.Bool() {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case datum.Date:
		return appendJSONString(buf, d.DateString())
	default:
		return appendJSONString(buf, d.Text())
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString renders s as a JSON string literal, escaping quotes,
// backslashes and control characters (so embedded newlines cannot break
// the one-object-per-line invariant).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

var _ format.Appender = (*Source)(nil)
