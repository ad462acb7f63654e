package scan

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"nodb/internal/datum"
)

// Writer emits CSV rows. It rejects field values containing the delimiter
// or newlines, since positional-map navigation relies on unambiguous
// delimiters (the same restriction the paper's workloads obey).
type Writer struct {
	w     *bufio.Writer
	delim byte
}

// NewWriter wraps w in a CSV writer with the given delimiter.
func NewWriter(w io.Writer, delim byte) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), delim: delim}
}

// WriteRow writes one row of raw string fields.
func (w *Writer) WriteRow(fields ...string) error {
	for i, f := range fields {
		if strings.IndexByte(f, w.delim) >= 0 || strings.ContainsAny(f, "\r\n") {
			return fmt.Errorf("scan: field %d contains delimiter or newline: %q", i, f)
		}
		if i > 0 {
			if err := w.w.WriteByte(w.delim); err != nil {
				return err
			}
		}
		if _, err := w.w.WriteString(f); err != nil {
			return err
		}
	}
	return w.w.WriteByte('\n')
}

// AppendDatums appends one row of typed values in their canonical ASCII
// form, delimiter-separated and newline-terminated, to buf.
func AppendDatums(buf []byte, delim byte, row []datum.Datum) []byte {
	for i, d := range row {
		if i > 0 {
			buf = append(buf, delim)
		}
		buf = append(buf, d.Format()...)
	}
	return append(buf, '\n')
}

// Flush drains the buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// CreateFile creates path and returns a Writer over it plus the file handle
// (caller must Flush the writer and Close the file).
func CreateFile(path string, delim byte) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scan: %w", err)
	}
	return NewWriter(f, delim), f, nil
}
