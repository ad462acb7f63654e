// Package scan implements raw CSV file access: chunked line reading,
// selective tokenizing (stop at the last attribute a query needs, paper
// §4.1), and incremental tokenization forward/backward from a known
// position (paper §4.2 "Exploiting the Positional Map").
//
// Fields must not contain the delimiter or newline characters — the same
// assumption PostgresRaw makes for its CSV workloads. The delimiter is
// configurable (TPC-H traditionally uses '|').
package scan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"nodb/internal/iofault"
)

// DefaultChunkSize is the unit of sequential file reads. 1 MB keeps the
// read syscall count low while staying cache friendly.
const DefaultChunkSize = 1 << 20

// bufPool recycles DefaultChunkSize read buffers: every raw scan needs one,
// and allocating (and zeroing, and later scavenging) a fresh megabyte per
// query costs more than short scans spend reading.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, DefaultChunkSize)
	return &b
}}

// LineReader iterates over the lines ("tuples") of a raw file in order,
// reading the underlying file in large chunks. Returned line slices are
// only valid until the next call to Next or Release.
type LineReader struct {
	f         io.Reader
	buf       []byte
	pooled    *[]byte // buf's origin in bufPool; nil for a custom chunk size
	start     int     // start of the unconsumed region in buf
	end       int     // end of valid data in buf
	bufOffset int64   // file offset of buf[0]
	eof       bool
	err       error // first non-EOF read error; surfaced by Next
}

// NewLineReader wraps f with a chunked line scanner. chunkSize <= 0 uses
// DefaultChunkSize. Call Release when done so the read buffer is recycled.
func NewLineReader(f io.Reader, chunkSize int) *LineReader {
	if chunkSize <= 0 || chunkSize == DefaultChunkSize {
		bp := bufPool.Get().(*[]byte)
		return &LineReader{f: f, buf: *bp, pooled: bp}
	}
	return &LineReader{f: f, buf: make([]byte, chunkSize)}
}

// Release hands the read buffer back for reuse by a later scan. The reader
// is exhausted afterwards (Next reports io.EOF) and every line slice it
// returned is invalid. Safe to call more than once.
func (lr *LineReader) Release() {
	if lr.pooled != nil {
		bufPool.Put(lr.pooled)
		lr.pooled = nil
	}
	lr.buf, lr.start, lr.end, lr.eof, lr.err = nil, 0, 0, true, nil
}

// NewLineReaderAt wraps r like NewLineReader but reports line offsets
// relative to base — the absolute file position of r's first byte. Used by
// partition workers scanning an io.SectionReader of a larger file.
func NewLineReaderAt(r io.Reader, base int64, chunkSize int) *LineReader {
	lr := NewLineReader(r, chunkSize)
	lr.bufOffset = base
	return lr
}

// OpenFile opens path through the iofault seam and returns a LineReader
// over it along with the file handle (caller closes). table names the
// table being scanned, for error context.
func OpenFile(table, path string, chunkSize int) (*LineReader, iofault.File, error) {
	f, err := iofault.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scan: table %s (%s): %w", table, path, err)
	}
	return NewLineReader(f, chunkSize), f, nil
}

// Next returns the next line (without the trailing newline, with a trailing
// \r stripped) and its absolute byte offset in the file. It returns io.EOF
// after the last line. Empty trailing lines are skipped.
func (lr *LineReader) Next() (line []byte, offset int64, err error) {
	for {
		// Look for a newline in the buffered region.
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			line = lr.buf[lr.start : lr.start+i]
			offset = lr.bufOffset + int64(lr.start)
			lr.start += i + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, offset, nil
		}
		if lr.eof {
			// A read fault is not end-of-file: surfacing it (instead of
			// emitting whatever prefix happened to be buffered as if the
			// file ended there) is what keeps an EIO from silently
			// truncating query results.
			if lr.err != nil {
				return nil, 0, fmt.Errorf("scan: read: %w", lr.err)
			}
			// Final line without newline.
			if lr.start < lr.end {
				line = lr.buf[lr.start:lr.end]
				offset = lr.bufOffset + int64(lr.start)
				lr.start = lr.end
				if len(line) > 0 && line[len(line)-1] == '\r' {
					line = line[:len(line)-1]
				}
				return line, offset, nil
			}
			return nil, 0, io.EOF
		}
		lr.fill()
	}
}

// fill shifts the unconsumed tail to the front of the buffer and reads more
// data, growing the buffer when a single line exceeds its size.
func (lr *LineReader) fill() {
	tail := lr.end - lr.start
	if lr.start > 0 {
		copy(lr.buf, lr.buf[lr.start:lr.end])
		lr.bufOffset += int64(lr.start)
		lr.start, lr.end = 0, tail
	}
	if lr.end == len(lr.buf) {
		// Line longer than the buffer: grow.
		nb := make([]byte, len(lr.buf)*2)
		copy(nb, lr.buf[:lr.end])
		lr.buf = nb
	}
	n, err := lr.f.Read(lr.buf[lr.end:])
	lr.end += n
	if err != nil {
		lr.eof = true
		if err != io.EOF {
			lr.err = err
		}
	}
}

// Range is a half-open byte range [Start, End) of a raw file, aligned so
// that every line belongs to exactly one range (the one containing its
// first byte).
type Range struct {
	Start, End int64
}

// Split partitions [0, size) into at most n line-aligned ranges of roughly
// equal size: every interior boundary is placed just past the first '\n'
// at or beyond the even split point, probed with small ReadAt calls, so a
// line starting before a boundary is wholly contained in the range before
// it. Ranges are never empty; fewer than n come back when lines are longer
// than an even share (or the file is small). A zero-size file yields one
// empty range so callers keep a uniform one-worker path.
func Split(r io.ReaderAt, size int64, n int) ([]Range, error) {
	if n < 1 {
		n = 1
	}
	if size <= 0 {
		return []Range{{0, 0}}, nil
	}
	bounds := make([]int64, 1, n+1)
	buf := make([]byte, 4096)
	for i := 1; i < n; i++ {
		target := size * int64(i) / int64(n)
		if target <= bounds[len(bounds)-1] {
			continue
		}
		b, err := nextLineStart(r, target, size, buf)
		if err != nil {
			return nil, fmt.Errorf("scan: probing split point %d: %w", target, err)
		}
		if b > bounds[len(bounds)-1] && b < size {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, size)
	parts := make([]Range, len(bounds)-1)
	for i := range parts {
		parts[i] = Range{Start: bounds[i], End: bounds[i+1]}
	}
	return parts, nil
}

// nextLineStart returns the offset just past the first '\n' at or after
// from, or size when no newline follows.
func nextLineStart(r io.ReaderAt, from, size int64, buf []byte) (int64, error) {
	for off := from; off < size; {
		want := int64(len(buf))
		if rest := size - off; rest < want {
			want = rest
		}
		n, err := r.ReadAt(buf[:want], off)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return off + int64(i) + 1, nil
		}
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
	}
	return size, nil
}

// Tokenize appends to dst the start offsets of fields 0..upTo within line,
// followed by one sentinel entry just past the end of field upTo (i.e. the
// offset of the byte after its delimiter, or len(line)+1 if the field is
// terminated by end-of-line). Field i's bytes are therefore
// line[dst[i] : dst[i+1]-1].
//
// This is the paper's *selective tokenizing*: the walk stops as soon as the
// requested attribute has been bounded instead of tokenizing the full tuple.
// upTo < 0 tokenizes every field. It returns the extended slice and the
// number of complete fields found (which can be less than upTo+1 on short
// rows).
func Tokenize(line []byte, delim byte, upTo int, dst []uint32) ([]uint32, int) {
	dst = append(dst, 0)
	fields := 0
	for i := 0; i < len(line); i++ {
		if line[i] == delim {
			fields++
			dst = append(dst, uint32(i+1))
			if upTo >= 0 && fields > upTo {
				return dst, fields // sentinel already appended
			}
		}
	}
	fields++
	dst = append(dst, uint32(len(line)+1))
	return dst, fields
}

// FieldAt returns the bytes of the field starting at offset start in line,
// ending at the next delimiter or end of line.
func FieldAt(line []byte, start uint32, delim byte) []byte {
	if int(start) > len(line) {
		return nil
	}
	rest := line[start:]
	if i := bytes.IndexByte(rest, delim); i >= 0 {
		return rest[:i]
	}
	return rest
}

// SkipForward returns the start offset of the field n positions after the
// field starting at from, by scanning forward for delimiters (incremental
// tokenization in the forward direction). ok is false if the line ends
// first.
func SkipForward(line []byte, from uint32, n int, delim byte) (uint32, bool) {
	pos := int(from)
	for n > 0 {
		i := bytes.IndexByte(line[pos:], delim)
		if i < 0 {
			return 0, false
		}
		pos += i + 1
		n--
	}
	return uint32(pos), true
}

// SkipBackward returns the start offset of the field n positions before the
// field starting at from, scanning backwards (paper: "jumps initially to
// the position of the 12th attribute and tokenizes backwards"). ok is
// false if the line starts first.
func SkipBackward(line []byte, from uint32, n int, delim byte) (uint32, bool) {
	// from is the first byte of a field; the delimiter before it (if any)
	// is at from-1.
	pos := int(from) - 1
	for n > 0 {
		if pos <= 0 {
			// Reached line start; field 0 starts at 0 after consuming one step.
			if n == 1 && pos == 0 {
				return 0, true
			}
			return 0, false
		}
		j := bytes.LastIndexByte(line[:pos], delim)
		if j < 0 {
			if n == 1 {
				return 0, true
			}
			return 0, false
		}
		pos = j
		n--
		if n == 0 {
			return uint32(j + 1), true
		}
	}
	return uint32(pos), true
}

// CountFields returns the number of fields in line.
func CountFields(line []byte, delim byte) int {
	return bytes.Count(line, []byte{delim}) + 1
}

// ExtendPrefix continues a partial tokenization: pos holds the start
// offsets of a line's leading fields (at least one; pos[len(pos)-1] is the
// last boundary found so far), and the walk appends the start of every
// following field until pos covers field upTo — selective tokenizing's
// stop — or the line ends (a short row: fewer than upTo+1 entries come
// back). It is Tokenize resumable mid-line, without the sentinel.
//
// The walk examines eight bytes per step (an exact zero-byte test on the
// word XORed with the delimiter) and calls nothing, so the short fields
// of the paper's workloads — a handful of digits — do not pay a call per
// field, and long ones are still skipped a word at a time.
func ExtendPrefix(line []byte, delim byte, upTo int, pos []uint32) []uint32 {
	if len(pos) > upTo {
		return pos
	}
	const lo7 = 0x7F7F7F7F7F7F7F7F
	pat := uint64(delim) * 0x0101010101010101
	i := int(pos[len(pos)-1])
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:]) ^ pat
		// High bit of each byte of m is set exactly where x's byte is zero
		// (no carries cross bytes, so no false positives next to a match).
		m := ^((x&lo7 + lo7) | x | lo7)
		for ; m != 0; m &= m - 1 {
			pos = append(pos, uint32(i+bits.TrailingZeros64(m)>>3+1))
			if len(pos) > upTo {
				return pos
			}
		}
	}
	for ; i < len(line); i++ {
		if line[i] == delim {
			pos = append(pos, uint32(i+1))
			if len(pos) > upTo {
				break
			}
		}
	}
	return pos
}
