// Package fits implements the subset of the FITS (Flexible Image
// Transport System) format that the paper's §5.3 experiment needs: binary
// table extensions (XTENSION = 'BINTABLE') with big-endian numeric
// columns, plus a writer so experiments can generate files.
//
// FITS files are organized in 2880-byte blocks. A header is a sequence of
// 80-character ASCII "cards" (KEYWORD = value / comment), terminated by an
// END card and padded to a block boundary; the data payload follows,
// likewise padded. Because rows are fixed width, attribute positions are
// implicit — the interesting NoDB machinery for binary formats is caching,
// not positional maps (paper: "while parsing may not be required ...
// techniques such as caching become more important").
package fits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/iofault"
)

// BlockSize is the FITS unit of storage.
const BlockSize = 2880

// cardSize is the length of one header card.
const cardSize = 80

// ColType enumerates the supported BINTABLE column types (TFORM codes).
type ColType byte

// Supported TFORM codes.
const (
	Int32   ColType = 'J' // 32-bit big-endian integer
	Int64   ColType = 'K' // 64-bit big-endian integer
	Float32 ColType = 'E' // IEEE 754 single
	Float64 ColType = 'D' // IEEE 754 double
)

// width returns the byte width of a column type.
func (t ColType) width() int {
	switch t {
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	}
	return 0
}

// DatumType maps a FITS column type to the engine's type system.
func (t ColType) DatumType() datum.Type {
	switch t {
	case Int32, Int64:
		return datum.Int
	case Float32, Float64:
		return datum.Float
	}
	return datum.Unknown
}

// Column describes one BINTABLE column.
type Column struct {
	Name string // TTYPEn
	Type ColType
}

// Table is an opened FITS binary table.
type Table struct {
	Cols     []Column
	NRows    int64
	rowBytes int
	offsets  []int // byte offset of each column within a row
	dataOff  int64 // file offset of the data payload
	f        iofault.File
}

// card renders one "KEYWORD = value" header card.
func card(key, value string) string {
	s := fmt.Sprintf("%-8s= %s", key, value)
	if len(s) > cardSize {
		s = s[:cardSize]
	}
	return s + strings.Repeat(" ", cardSize-len(s))
}

func endCard() string {
	return "END" + strings.Repeat(" ", cardSize-3)
}

// WriteTable creates a FITS file at path containing a primary header and
// one binary table extension with the given columns and rows. Row values
// must match the column types (Int for J/K, Float for E/D). For large
// tables prefer the streaming TableWriter.
func WriteTable(path string, cols []Column, rows [][]datum.Datum) error {
	w, err := NewTableWriter(path, cols, int64(len(rows)))
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// TableWriter streams rows into a FITS binary table. The row count must be
// declared up front (FITS headers precede the data).
type TableWriter struct {
	f        *os.File
	cols     []Column
	declared int64
	written  int64
	buf      []byte
	dataLen  int64
}

// NewTableWriter creates the file and writes the headers for nrows rows.
func NewTableWriter(path string, cols []Column, nrows int64) (*TableWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fits: %w", err)
	}
	rowBytes := 0
	for _, c := range cols {
		if c.Type.width() == 0 {
			f.Close()
			return nil, fmt.Errorf("fits: unsupported column type %q", c.Type)
		}
		rowBytes += c.Type.width()
	}

	// Primary HDU: no data.
	var hdr strings.Builder
	hdr.WriteString(card("SIMPLE", "T"))
	hdr.WriteString(card("BITPIX", "8"))
	hdr.WriteString(card("NAXIS", "0"))
	hdr.WriteString(card("EXTEND", "T"))
	hdr.WriteString(endCard())
	if err := writePadded(f, []byte(hdr.String())); err != nil {
		f.Close()
		return nil, err
	}

	// BINTABLE extension header.
	var ext strings.Builder
	ext.WriteString(card("XTENSION", "'BINTABLE'"))
	ext.WriteString(card("BITPIX", "8"))
	ext.WriteString(card("NAXIS", "2"))
	ext.WriteString(card("NAXIS1", strconv.Itoa(rowBytes)))
	ext.WriteString(card("NAXIS2", strconv.FormatInt(nrows, 10)))
	ext.WriteString(card("PCOUNT", "0"))
	ext.WriteString(card("GCOUNT", "1"))
	ext.WriteString(card("TFIELDS", strconv.Itoa(len(cols))))
	for i, c := range cols {
		ext.WriteString(card(fmt.Sprintf("TTYPE%d", i+1), fmt.Sprintf("'%s'", c.Name)))
		ext.WriteString(card(fmt.Sprintf("TFORM%d", i+1), fmt.Sprintf("'1%c'", c.Type)))
	}
	ext.WriteString(endCard())
	if err := writePadded(f, []byte(ext.String())); err != nil {
		f.Close()
		return nil, err
	}
	return &TableWriter{
		f:        f,
		cols:     append([]Column(nil), cols...),
		declared: nrows,
		buf:      make([]byte, 0, 1<<16),
	}, nil
}

// Append encodes one row (big-endian) into the data payload.
func (w *TableWriter) Append(row []datum.Datum) error {
	if len(row) != len(w.cols) {
		return fmt.Errorf("fits: row %d has %d values, want %d", w.written, len(row), len(w.cols))
	}
	if w.written >= w.declared {
		return fmt.Errorf("fits: more rows than the declared %d", w.declared)
	}
	for ci, c := range w.cols {
		v := row[ci]
		switch c.Type {
		case Int32:
			w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(int32(v.Int())))
		case Int64:
			w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v.Int()))
		case Float32:
			w.buf = binary.BigEndian.AppendUint32(w.buf, math.Float32bits(float32(v.Float())))
		case Float64:
			w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v.Float()))
		}
	}
	w.written++
	if len(w.buf) >= 1<<16-64 {
		if _, err := w.f.Write(w.buf); err != nil {
			return fmt.Errorf("fits: %w", err)
		}
		w.dataLen += int64(len(w.buf))
		w.buf = w.buf[:0]
	}
	return nil
}

// Close flushes the payload, pads to a block boundary and closes the file.
func (w *TableWriter) Close() error {
	if w.f == nil {
		return nil
	}
	defer func() { w.f = nil }()
	if w.written != w.declared {
		w.f.Close()
		return fmt.Errorf("fits: wrote %d of %d declared rows", w.written, w.declared)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.f.Close()
		return fmt.Errorf("fits: %w", err)
	}
	w.dataLen += int64(len(w.buf))
	if rem := w.dataLen % BlockSize; rem != 0 {
		if _, err := w.f.Write(make([]byte, BlockSize-rem)); err != nil {
			w.f.Close()
			return fmt.Errorf("fits: %w", err)
		}
	}
	return w.f.Close()
}

// writePadded writes data followed by zero padding to a block boundary.
func writePadded(w io.Writer, data []byte) error {
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("fits: %w", err)
	}
	if rem := len(data) % BlockSize; rem != 0 {
		if _, err := w.Write(make([]byte, BlockSize-rem)); err != nil {
			return fmt.Errorf("fits: %w", err)
		}
	}
	return nil
}

// Open parses the headers of a FITS file and positions at the first
// BINTABLE extension.
func Open(path string) (*Table, error) {
	f, err := iofault.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fits: %w", err)
	}
	t, err := parse(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.f = f
	return t, nil
}

// CheckPayload verifies that the file still holds every row the header
// declares. A FITS file truncated mid-payload keeps its header, so only
// this comparison — not the header parse — notices; scans run it before
// decoding anything, so a torn file fails as a whole (ErrFileChanged)
// instead of after the rows that happen to survive.
func (t *Table) CheckPayload() error {
	fi, err := t.f.Stat()
	if err != nil {
		return fmt.Errorf("fits: %w", err)
	}
	if need := t.dataOff + t.NRows*int64(t.rowBytes); fi.Size() < need {
		return fmt.Errorf("fits: file holds %d bytes where the header declares %d: %w",
			fi.Size(), need, format.ErrFileChanged)
	}
	return nil
}

// parse walks HDUs until it finds a binary table.
func parse(f io.ReaderAt) (*Table, error) {
	off := int64(0)
	for {
		cards, next, err := readHeader(f, off)
		if err != nil {
			return nil, err
		}
		if strings.Contains(cards["XTENSION"], "BINTABLE") {
			return parseBinTable(cards, next)
		}
		// Skip this HDU's data payload and probe for another HDU.
		dataLen, err := hduDataLen(cards)
		if err != nil {
			return nil, err
		}
		off = next + pad(dataLen)
		var probe [1]byte
		if _, err := f.ReadAt(probe[:], off); err != nil {
			return nil, fmt.Errorf("fits: no BINTABLE extension found")
		}
	}
}

// readHeader reads cards from off until END, returning the keyword map and
// the offset just past the header padding.
func readHeader(f io.ReaderAt, off int64) (map[string]string, int64, error) {
	cards := map[string]string{}
	block := make([]byte, BlockSize)
	for {
		if _, err := f.ReadAt(block, off); err != nil {
			return nil, 0, fmt.Errorf("fits: reading header: %w", err)
		}
		off += BlockSize
		for i := 0; i+cardSize <= BlockSize; i += cardSize {
			c := string(block[i : i+cardSize])
			key := strings.TrimSpace(c[:8])
			if key == "END" {
				return cards, off, nil
			}
			if key == "" || key == "COMMENT" || key == "HISTORY" {
				continue
			}
			if len(c) > 10 && c[8] == '=' {
				val := strings.TrimSpace(c[10:])
				if i := strings.Index(val, " /"); i >= 0 {
					val = strings.TrimSpace(val[:i])
				}
				cards[key] = val
			}
		}
	}
}

// hduDataLen computes the data payload bytes of an HDU from its header.
func hduDataLen(cards map[string]string) (int64, error) {
	naxis, _ := strconv.Atoi(cards["NAXIS"])
	if naxis == 0 {
		return 0, nil
	}
	bitpix, err := strconv.Atoi(cards["BITPIX"])
	if err != nil {
		return 0, fmt.Errorf("fits: bad BITPIX")
	}
	total := int64(1)
	for i := 1; i <= naxis; i++ {
		n, err := strconv.ParseInt(cards[fmt.Sprintf("NAXIS%d", i)], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("fits: bad NAXIS%d", i)
		}
		total *= n
	}
	if bitpix < 0 {
		bitpix = -bitpix
	}
	return total * int64(bitpix) / 8, nil
}

func pad(n int64) int64 {
	if rem := n % BlockSize; rem != 0 {
		return n + BlockSize - rem
	}
	return n
}

// parseBinTable builds a Table from a BINTABLE header.
func parseBinTable(cards map[string]string, dataOff int64) (*Table, error) {
	rowBytes, err := strconv.Atoi(cards["NAXIS1"])
	if err != nil {
		return nil, fmt.Errorf("fits: bad NAXIS1")
	}
	nrows, err := strconv.ParseInt(cards["NAXIS2"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fits: bad NAXIS2")
	}
	nfields, err := strconv.Atoi(cards["TFIELDS"])
	if err != nil {
		return nil, fmt.Errorf("fits: bad TFIELDS")
	}
	t := &Table{NRows: nrows, rowBytes: rowBytes, dataOff: dataOff}
	offset := 0
	for i := 1; i <= nfields; i++ {
		name := strings.Trim(strings.Trim(cards[fmt.Sprintf("TTYPE%d", i)], "'"), " ")
		form := strings.Trim(strings.Trim(cards[fmt.Sprintf("TFORM%d", i)], "'"), " ")
		if form == "" {
			return nil, fmt.Errorf("fits: missing TFORM%d", i)
		}
		// Strip the repeat count prefix (we support repeat 1).
		code := form[len(form)-1]
		ct := ColType(code)
		if ct.width() == 0 {
			return nil, fmt.Errorf("fits: unsupported TFORM %q", form)
		}
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		t.Cols = append(t.Cols, Column{Name: strings.ToLower(name), Type: ct})
		t.offsets = append(t.offsets, offset)
		offset += ct.width()
	}
	if offset != rowBytes {
		return nil, fmt.Errorf("fits: column widths (%d) disagree with NAXIS1 (%d)", offset, rowBytes)
	}
	return t, nil
}

// Close releases the file.
func (t *Table) Close() error {
	if t.f != nil {
		err := t.f.Close()
		t.f = nil
		return err
	}
	return nil
}

// Reader streams the table rows in chunks of whole rows. Readers issue
// positioned reads (ReadAt) against the shared file handle, so any number
// of them — e.g. partition workers of a parallel scan — run concurrently.
type Reader struct {
	t     *Table
	ra    io.ReaderAt // IO source; t.f, or a per-query attribution wrapper
	buf   []byte
	row   int64 // next row index
	limit int64 // one past the last row to read
	bpos  int   // byte position within buf
	blen  int
}

// SetReaderAt overrides the reader's IO source — profiled scans wrap the
// shared file handle in a per-query attribution counter. Each reader holds
// its own override, so concurrent partition workers attribute to their own
// query's profile.
func (r *Reader) SetReaderAt(ra io.ReaderAt) { r.ra = ra }

// NewReader returns a sequential reader over the whole table.
func (t *Table) NewReader() *Reader {
	return t.NewRangeReader(0, t.NRows)
}

// NewRangeReader returns a reader over rows [lo, hi) — the row-index
// partition unit of a parallel FITS scan (fixed-width rows split
// trivially, no boundary probing needed).
func (t *Table) NewRangeReader(lo, hi int64) *Reader {
	if hi > t.NRows {
		hi = t.NRows
	}
	if lo < 0 {
		lo = 0
	}
	return &Reader{
		t:     t,
		ra:    t.f,
		row:   lo,
		limit: hi,
		buf:   make([]byte, 256*1024/t.rowBytes*t.rowBytes+t.rowBytes),
	}
}

// Next decodes row values for the given column ordinals into dst (resized
// as needed). It returns io.EOF past the last row of the range.
func (r *Reader) Next(cols []int, dst []datum.Datum) ([]datum.Datum, error) {
	if r.row >= r.limit {
		return dst, io.EOF
	}
	if r.bpos >= r.blen {
		off := r.t.dataOff + r.row*int64(r.t.rowBytes)
		maxRows := int64(len(r.buf) / r.t.rowBytes)
		if rem := r.limit - r.row; rem < maxRows {
			maxRows = rem
		}
		n, err := r.ra.ReadAt(r.buf[:maxRows*int64(r.t.rowBytes)], off)
		if err != nil && n < int(maxRows)*r.t.rowBytes {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// The header declared rows the file no longer holds: it was
				// truncated or replaced after the table was opened.
				return dst, fmt.Errorf("fits: reading rows: file shorter than header declares: %w: %w",
					format.ErrFileChanged, err)
			}
			return dst, fmt.Errorf("fits: reading rows: %w", err)
		}
		r.blen = int(maxRows) * r.t.rowBytes
		r.bpos = 0
	}
	rowBytes := r.buf[r.bpos : r.bpos+r.t.rowBytes]
	if cap(dst) < len(cols) {
		dst = make([]datum.Datum, len(cols))
	} else {
		dst = dst[:len(cols)]
	}
	for i, c := range cols {
		dst[i] = r.t.decode(rowBytes, c)
	}
	r.bpos += r.t.rowBytes
	r.row++
	return dst, nil
}

// decode extracts column c from a raw row image.
func (t *Table) decode(row []byte, c int) datum.Datum {
	off := t.offsets[c]
	switch t.Cols[c].Type {
	case Int32:
		return datum.NewInt(int64(int32(binary.BigEndian.Uint32(row[off:]))))
	case Int64:
		return datum.NewInt(int64(binary.BigEndian.Uint64(row[off:])))
	case Float32:
		return datum.NewFloat(float64(math.Float32frombits(binary.BigEndian.Uint32(row[off:]))))
	case Float64:
		return datum.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(row[off:])))
	}
	return datum.Datum{}
}
