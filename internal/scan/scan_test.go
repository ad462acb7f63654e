package scan

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"nodb/internal/datum"
)

func readAllLines(t *testing.T, data string, chunk int) (lines []string, offsets []int64) {
	t.Helper()
	lr := NewLineReader(strings.NewReader(data), chunk)
	for {
		line, off, err := lr.Next()
		if err == io.EOF {
			return lines, offsets
		}
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
		offsets = append(offsets, off)
	}
}

func TestLineReaderBasic(t *testing.T) {
	lines, offsets := readAllLines(t, "a,b\ncc,dd\ne,f\n", 64)
	want := []string{"a,b", "cc,dd", "e,f"}
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	wantOff := []int64{0, 4, 10}
	for i := range wantOff {
		if offsets[i] != wantOff[i] {
			t.Errorf("offset %d = %d, want %d", i, offsets[i], wantOff[i])
		}
	}
}

func TestLineReaderNoTrailingNewline(t *testing.T) {
	lines, _ := readAllLines(t, "x,y\nlast,line", 64)
	if len(lines) != 2 || lines[1] != "last,line" {
		t.Errorf("lines = %v", lines)
	}
}

func TestLineReaderCRLF(t *testing.T) {
	lines, _ := readAllLines(t, "a,b\r\nc,d\r\n", 64)
	if lines[0] != "a,b" || lines[1] != "c,d" {
		t.Errorf("CRLF handling broken: %v", lines)
	}
}

func TestLineReaderEmpty(t *testing.T) {
	lines, _ := readAllLines(t, "", 64)
	if len(lines) != 0 {
		t.Errorf("empty file produced %v", lines)
	}
}

func TestLineReaderLineLongerThanChunk(t *testing.T) {
	long := strings.Repeat("x", 500)
	data := long + "\nshort\n"
	lines, offsets := readAllLines(t, data, 16) // chunk much smaller than the line
	if len(lines) != 2 || lines[0] != long || lines[1] != "short" {
		t.Fatalf("long line handling broken: %d lines", len(lines))
	}
	if offsets[1] != int64(len(long)+1) {
		t.Errorf("offset after long line = %d", offsets[1])
	}
}

func TestLineReaderOffsetsAcrossChunks(t *testing.T) {
	// Many lines with a tiny chunk: offsets must remain absolute.
	var sb strings.Builder
	var wantOffsets []int64
	for i := 0; i < 200; i++ {
		wantOffsets = append(wantOffsets, int64(sb.Len()))
		sb.WriteString(strings.Repeat("ab,", i%7+1))
		sb.WriteString("\n")
	}
	_, offsets := readAllLines(t, sb.String(), 32)
	if len(offsets) != 200 {
		t.Fatalf("got %d lines", len(offsets))
	}
	for i := range wantOffsets {
		if offsets[i] != wantOffsets[i] {
			t.Fatalf("offset %d = %d, want %d", i, offsets[i], wantOffsets[i])
		}
	}
}

func TestTokenizeFull(t *testing.T) {
	line := []byte("10,20,30")
	pos, n := Tokenize(line, ',', -1, nil)
	if n != 3 {
		t.Fatalf("fields = %d", n)
	}
	want := []uint32{0, 3, 6, 9}
	for i := range want {
		if pos[i] != want[i] {
			t.Fatalf("pos = %v, want %v", pos, want)
		}
	}
	// Extract each field via the documented bounds.
	for i, wantF := range []string{"10", "20", "30"} {
		got := string(line[pos[i] : pos[i+1]-1])
		if got != wantF {
			t.Errorf("field %d = %q", i, got)
		}
	}
}

func TestTokenizeSelective(t *testing.T) {
	line := []byte("a,bb,ccc,dddd,eeeee")
	pos, n := Tokenize(line, ',', 2, nil)
	if n != 3 {
		t.Fatalf("selective fields = %d, want 3", n)
	}
	// Bounds must cover fields 0..2 plus the sentinel.
	if len(pos) != 4 {
		t.Fatalf("positions = %v", pos)
	}
	if got := string(line[pos[2] : pos[3]-1]); got != "ccc" {
		t.Errorf("field 2 = %q", got)
	}
}

func TestTokenizeShortRow(t *testing.T) {
	line := []byte("only,two")
	pos, n := Tokenize(line, ',', 5, nil)
	if n != 2 {
		t.Errorf("short row fields = %d, want 2", n)
	}
	if got := string(line[pos[1] : pos[2]-1]); got != "two" {
		t.Errorf("field 1 = %q", got)
	}
}

func TestTokenizeEmptyFields(t *testing.T) {
	line := []byte(",,")
	pos, n := Tokenize(line, ',', -1, nil)
	if n != 3 {
		t.Fatalf("empty fields = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if got := string(line[pos[i] : pos[i+1]-1]); got != "" {
			t.Errorf("field %d = %q, want empty", i, got)
		}
	}
}

func TestFieldAt(t *testing.T) {
	line := []byte("aa|bb|cc")
	if got := string(FieldAt(line, 3, '|')); got != "bb" {
		t.Errorf("FieldAt(3) = %q", got)
	}
	if got := string(FieldAt(line, 6, '|')); got != "cc" {
		t.Errorf("FieldAt(6) = %q", got)
	}
	if got := FieldAt(line, 99, '|'); got != nil {
		t.Errorf("FieldAt(out of range) = %q", got)
	}
}

func TestSkipForward(t *testing.T) {
	line := []byte("aa,bb,cc,dd")
	pos, ok := SkipForward(line, 0, 2, ',')
	if !ok || pos != 6 {
		t.Errorf("SkipForward(0,2) = %d %v", pos, ok)
	}
	pos, ok = SkipForward(line, 3, 1, ',')
	if !ok || pos != 6 {
		t.Errorf("SkipForward(3,1) = %d %v", pos, ok)
	}
	if _, ok = SkipForward(line, 9, 1, ','); ok {
		t.Error("SkipForward past end must fail")
	}
	pos, ok = SkipForward(line, 5, 0, ',')
	if !ok || pos != 5 {
		t.Error("SkipForward n=0 is identity")
	}
}

func TestSkipBackward(t *testing.T) {
	line := []byte("aa,bb,cc,dd")
	cases := []struct {
		from uint32
		n    int
		want uint32
		ok   bool
	}{
		{9, 1, 6, true},
		{9, 2, 3, true},
		{9, 3, 0, true},
		{6, 4, 0, false},
		{3, 1, 0, true},
		{0, 1, 0, false},
	}
	for _, tc := range cases {
		got, ok := SkipBackward(line, tc.from, tc.n, ',')
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("SkipBackward(%d,%d) = %d,%v want %d,%v", tc.from, tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// Property: navigating to field j via SkipForward/SkipBackward from any
// known field i must agree with full tokenization.
func TestIncrementalNavigationMatchesTokenize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nf := rng.Intn(12) + 1
		fields := make([]string, nf)
		for i := range fields {
			fields[i] = strings.Repeat("v", rng.Intn(5)) // may be empty
		}
		line := []byte(strings.Join(fields, ","))
		pos, n := Tokenize(line, ',', -1, nil)
		if n != nf {
			t.Fatalf("tokenize found %d of %d fields in %q", n, nf, line)
		}
		i, j := rng.Intn(nf), rng.Intn(nf)
		var got uint32
		var ok bool
		switch {
		case j > i:
			got, ok = SkipForward(line, pos[i], j-i, ',')
		case j < i:
			got, ok = SkipBackward(line, pos[i], i-j, ',')
		default:
			got, ok = pos[i], true
		}
		if !ok || got != pos[j] {
			t.Fatalf("nav %d->%d in %q: got %d,%v want %d", i, j, line, got, ok, pos[j])
		}
	}
}

func TestCountFields(t *testing.T) {
	if CountFields([]byte("a,b,c"), ',') != 3 {
		t.Error("CountFields")
	}
	if CountFields([]byte(""), ',') != 1 {
		t.Error("empty line has one (empty) field")
	}
}

// Property: writer then reader round-trips arbitrary delimiter-free rows.
func TestWriterReaderRoundtrip(t *testing.T) {
	f := func(raw [][]byte) bool {
		rows := make([][]string, 0, len(raw))
		for _, r := range raw {
			cleaned := strings.Map(func(c rune) rune {
				if c == ',' || c == '\n' || c == '\r' {
					return '_'
				}
				return c
			}, string(r))
			// Split into 1-3 fields deterministically.
			n := len(cleaned)%3 + 1
			fields := make([]string, n)
			for i := range fields {
				fields[i] = cleaned
			}
			rows = append(rows, fields)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, ',')
		for _, r := range rows {
			if err := w.WriteRow(r...); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		lr := NewLineReader(bytes.NewReader(buf.Bytes()), 17)
		for _, r := range rows {
			line, _, err := lr.Next()
			if err != nil {
				return false
			}
			pos, n := Tokenize(line, ',', -1, nil)
			if n != len(r) {
				return false
			}
			for i := range r {
				if string(line[pos[i]:pos[i+1]-1]) != r[i] {
					return false
				}
			}
		}
		_, _, err := lr.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriterRejectsDelimiter(t *testing.T) {
	w := NewWriter(io.Discard, ',')
	if err := w.WriteRow("a,b"); err == nil {
		t.Error("field containing delimiter must be rejected")
	}
	if err := w.WriteRow("a\nb"); err == nil {
		t.Error("field containing newline must be rejected")
	}
}

func TestAppendDatums(t *testing.T) {
	row := []datum.Datum{datum.NewInt(7), datum.NewText("x"), datum.NewNull(datum.Int)}
	if got := string(AppendDatums([]byte("kept "), '|', row)); got != "kept 7|x|\n" {
		t.Errorf("AppendDatums = %q", got)
	}
}

func TestOpenCreateFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	w, f, err := CreateFile(path, ',')
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow("1", "2"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lr, rf, err := OpenFile("t", path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	line, off, err := lr.Next()
	if err != nil || off != 0 || string(line) != "1,2" {
		t.Errorf("read back %q off %d err %v", line, off, err)
	}
	if _, _, err := OpenFile("t", filepath.Join(dir, "missing.csv"), 0); err == nil {
		t.Error("missing file must error")
	}
	if _, _, err := CreateFile(filepath.Join(dir, "nodir", "x.csv"), ','); err == nil {
		t.Error("uncreatable file must error")
	}
	_ = os.Remove(path)
}

func checkSplit(t *testing.T, data string, n int) []Range {
	t.Helper()
	r := strings.NewReader(data)
	parts, err := Split(r, int64(len(data)), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 || len(parts) > max(n, 1) {
		t.Fatalf("split(%d bytes, %d) = %d parts", len(data), n, len(parts))
	}
	if parts[0].Start != 0 || parts[len(parts)-1].End != int64(len(data)) {
		t.Fatalf("parts do not cover the file: %v", parts)
	}
	for i, p := range parts {
		if p.End < p.Start {
			t.Fatalf("inverted range %v", p)
		}
		if i > 0 {
			if p.Start != parts[i-1].End {
				t.Fatalf("gap/overlap between %v and %v", parts[i-1], p)
			}
			if p.Start == p.End {
				t.Fatalf("empty interior range %v in %v", p, parts)
			}
			// Interior boundaries sit just past a newline, so every line
			// belongs wholly to the range containing its first byte.
			if data[p.Start-1] != '\n' {
				t.Fatalf("boundary %d not line-aligned (prev byte %q)", p.Start, data[p.Start-1])
			}
		}
	}
	return parts
}

func TestSplitAlignsToLines(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "%d,%s\n", i, strings.Repeat("v", i%17))
	}
	data := sb.String()
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1000} {
		parts := checkSplit(t, data, n)
		// Reading every range with a section reader must reproduce the file's
		// line sequence exactly.
		var lines []string
		for _, p := range parts {
			lr := NewLineReaderAt(
				io.NewSectionReader(strings.NewReader(data), p.Start, p.End-p.Start), p.Start, 16)
			for {
				line, off, err := lr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if string(data[off:off+int64(len(line))]) != string(line) {
					t.Fatalf("offset %d does not point at line %q", off, line)
				}
				lines = append(lines, string(line))
			}
		}
		want, _ := readAllLines(t, data, 64)
		if len(lines) != len(want) {
			t.Fatalf("n=%d: %d lines via ranges, want %d", n, len(lines), len(want))
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Fatalf("n=%d: line %d = %q, want %q", n, i, lines[i], want[i])
			}
		}
	}
}

func TestSplitEdgeShapes(t *testing.T) {
	// Empty file: one empty range so callers keep a uniform worker path.
	parts, err := Split(strings.NewReader(""), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0] != (Range{0, 0}) {
		t.Fatalf("empty split = %v", parts)
	}
	// Single line, no trailing newline: cannot split.
	if parts = checkSplit(t, "only-one-line", 8); len(parts) != 1 {
		t.Fatalf("unsplittable line gave %v", parts)
	}
	// One giant line followed by short ones: boundaries skip the giant.
	data := strings.Repeat("x", 4096) + "\n" + "a\nb\nc\n"
	checkSplit(t, data, 8)
	// No trailing newline on the last line.
	checkSplit(t, "1,a\n2,b\n3,c", 2)
	// n < 1 behaves like 1.
	if parts = checkSplit(t, "a\nb\n", 0); len(parts) != 1 {
		t.Fatalf("n=0 split = %v", parts)
	}
}

func TestSplitRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var sb strings.Builder
		for i, n := 0, rng.Intn(40); i < n; i++ {
			sb.WriteString(strings.Repeat("f", rng.Intn(300)))
			sb.WriteByte('\n')
		}
		if rng.Intn(2) == 0 {
			sb.WriteString("tail-without-newline")
		}
		checkSplit(t, sb.String(), 1+rng.Intn(12))
	}
}

// TestLineReaderRelease: Release recycles the read buffer (the next reader
// picks it up and overwrites it), exhausts the reader, and is idempotent.
// A line must be copied before Release to outlive it — which is all the
// engine ever does with line bytes (datum.ParseBytes copies Text).
func TestLineReaderRelease(t *testing.T) {
	// sync.Pool may drop a buffer (it does so at random under -race), so
	// reuse is asserted over a few attempts, not on the first.
	reused := false
	for i := 0; i < 20 && !reused; i++ {
		lr := NewLineReader(strings.NewReader("alpha,beta\ngamma\n"), 0)
		line, _, err := lr.Next()
		if err != nil {
			t.Fatal(err)
		}
		kept := string(line)
		first := &lr.buf[0]
		lr.Release()
		lr.Release()
		if _, _, err := lr.Next(); err != io.EOF {
			t.Fatalf("Next after Release = %v, want io.EOF", err)
		}
		lr2 := NewLineReader(strings.NewReader("XXXXXXXXXXXXXXXX\n"), 0)
		if _, _, err := lr2.Next(); err != nil {
			t.Fatal(err)
		}
		reused = &lr2.buf[0] == first
		lr2.Release()
		if kept != "alpha,beta" {
			t.Fatalf("copied line changed to %q", kept)
		}
	}
	if !reused {
		t.Error("a released buffer was never handed to the next reader")
	}

	// A reader that outgrew its pooled buffer returns the pooled original,
	// and a custom chunk size never touches the pool.
	long := strings.Repeat("y", DefaultChunkSize+10) + "\n"
	big := NewLineReader(strings.NewReader(long), 0)
	if line, _, err := big.Next(); err != nil || len(line) != DefaultChunkSize+10 {
		t.Fatalf("long line: %d bytes, err %v", len(line), err)
	}
	if len(*big.pooled) != DefaultChunkSize {
		t.Errorf("pooled buffer is %d bytes, want DefaultChunkSize", len(*big.pooled))
	}
	big.Release()
	small := NewLineReader(strings.NewReader("a\n"), 64)
	if small.pooled != nil {
		t.Error("custom chunk size took a pooled buffer")
	}
	small.Release()
}
