package storage

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"nodb/internal/datum"
	"nodb/internal/schema"
)

func TestPageInsertTuple(t *testing.T) {
	var p Page
	p.Reset()
	if p.NumTuples() != 0 {
		t.Fatal("fresh page not empty")
	}
	if !p.Insert([]byte("hello")) {
		t.Fatal("insert failed")
	}
	if !p.Insert([]byte("world!")) {
		t.Fatal("insert failed")
	}
	if p.NumTuples() != 2 {
		t.Fatalf("NumTuples = %d", p.NumTuples())
	}
	b, err := p.Tuple(0)
	if err != nil || string(b) != "hello" {
		t.Errorf("Tuple(0) = %q %v", b, err)
	}
	b, err = p.Tuple(1)
	if err != nil || string(b) != "world!" {
		t.Errorf("Tuple(1) = %q %v", b, err)
	}
	if _, err := p.Tuple(2); err == nil {
		t.Error("out of range tuple must error")
	}
	if _, err := p.Tuple(-1); err == nil {
		t.Error("negative tuple must error")
	}
}

func TestPageFillsUp(t *testing.T) {
	var p Page
	p.Reset()
	tuple := make([]byte, 100)
	n := 0
	for p.Insert(tuple) {
		n++
	}
	// 8188 usable bytes / 104 per tuple ≈ 78.
	if n < 70 || n > 80 {
		t.Errorf("page held %d 100-byte tuples", n)
	}
	// After filling, free space is less than one more tuple.
	if p.FreeSpace() >= 104 {
		t.Errorf("free space %d but insert failed", p.FreeSpace())
	}
}

func TestPageRejectsOversize(t *testing.T) {
	var p Page
	p.Reset()
	rawCap := PageSize - pageHeaderSize - slotSize
	if p.Insert(make([]byte, rawCap+1)) {
		t.Error("oversized slot must be rejected")
	}
	if !p.Insert(make([]byte, rawCap)) {
		t.Error("exactly-capacity slot must fit in an empty page")
	}
}

func TestPageKinds(t *testing.T) {
	var p Page
	p.Reset()
	if p.Kind() != KindData {
		t.Error("Reset must produce a data page")
	}
	p.ResetKind(KindOverflow)
	if p.Kind() != KindOverflow {
		t.Error("ResetKind(KindOverflow) kind wrong")
	}
	if len(p.OverflowPayload()) != OverflowCap {
		t.Errorf("overflow payload = %d, want %d", len(p.OverflowPayload()), OverflowCap)
	}
}

// Property: tuples inserted into a page read back identically in order.
func TestPageRoundtripProperty(t *testing.T) {
	f := func(tuples [][]byte) bool {
		var p Page
		p.Reset()
		var kept [][]byte
		for _, tup := range tuples {
			if len(tup) > 512 {
				tup = tup[:512]
			}
			if p.Insert(tup) {
				kept = append(kept, append([]byte(nil), tup...))
			}
		}
		if p.NumTuples() != len(kept) {
			return false
		}
		for i, want := range kept {
			got, err := p.Tuple(i)
			if err != nil || string(got) != string(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sampleRow() []datum.Datum {
	return []datum.Datum{
		datum.NewInt(-42),
		datum.NewFloat(3.75),
		datum.NewText("varlena string"),
		datum.MustDate("1996-04-12"),
		datum.NewBool(true),
		datum.NewNull(datum.Int),
	}
}

func sampleTypes() []datum.Type {
	return []datum.Type{datum.Int, datum.Float, datum.Text, datum.Date, datum.Bool, datum.Int}
}

func TestTupleEncodeDecode(t *testing.T) {
	row := sampleRow()
	buf := EncodeTuple(row, nil)
	back, err := DecodeTuplePrefix(buf, sampleTypes(), len(row)-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if row[i].Null() != back[i].Null() {
			t.Fatalf("col %d null mismatch", i)
		}
		if !row[i].Null() && datum.Compare(row[i], back[i]) != 0 {
			t.Fatalf("col %d: %v != %v", i, row[i], back[i])
		}
	}
}

// Property: encode/decode round-trips arbitrary int/text rows.
func TestTupleRoundtripProperty(t *testing.T) {
	f := func(i1 int64, s string, f1 float64, null bool) bool {
		if len(s) > 1000 {
			s = s[:1000]
		}
		row := []datum.Datum{datum.NewInt(i1), datum.NewText(s), datum.NewFloat(f1)}
		if null {
			row[0] = datum.NewNull(datum.Int)
		}
		types := []datum.Type{datum.Int, datum.Text, datum.Float}
		back, err := DecodeTuplePrefix(EncodeTuple(row, nil), types, len(types)-1, nil)
		if err != nil {
			return false
		}
		for i := range row {
			if row[i].Null() != back[i].Null() {
				return false
			}
			if !row[i].Null() && datum.Compare(row[i], back[i]) != 0 {
				// NaN compares weirdly; accept NaN == NaN by bits.
				if row[i].T == datum.Float && row[i].Float() != row[i].Float() && back[i].Float() != back[i].Float() {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	row := sampleRow()
	buf := EncodeTuple(row, nil)
	for cut := 0; cut < len(buf); cut += 3 {
		if _, err := DecodeTuplePrefix(buf[:cut], sampleTypes(), len(row)-1, nil); err == nil && cut < len(buf) {
			// Some prefixes may decode "successfully" only if cut lands at
			// the exact end; any shorter prefix must error for this row
			// because the last non-null column is Bool at the very end.
			t.Fatalf("truncated decode at %d did not fail", cut)
		}
	}
}

func TestHeapWriteScan(t *testing.T) {
	dir := t.TempDir()
	types := []datum.Type{datum.Int, datum.Text}
	w, err := CreateHeap(filepath.Join(dir, "t.heap"), types)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		row := []datum.Datum{datum.NewInt(int64(i)), datum.NewText(strings.Repeat("x", i%50))}
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(8)
	h, err := w.Finish(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Rows() != n {
		t.Errorf("Rows = %d", h.Rows())
	}
	if h.pages == 0 {
		t.Error("no pages written")
	}
	it := h.ScanPrefix(len(types) - 1)
	count := 0
	for {
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != int64(count) {
			t.Fatalf("row %d out of order: %v", count, row[0])
		}
		if len(row[1].Text()) != count%50 {
			t.Fatalf("row %d text wrong", count)
		}
		count++
	}
	if count != n {
		t.Errorf("scanned %d rows, want %d", count, n)
	}
}

func TestHeapOverflowTuples(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateHeap(filepath.Join(dir, "h.heap"), []datum.Type{datum.Int, datum.Text})
	if err != nil {
		t.Fatal(err)
	}
	// Mix normal rows with rows that span one and several overflow pages.
	widths := []int{10, MaxTupleSize + 100, 20, 3*PageSize + 17, 30, MaxTupleSize + 1}
	for i, wdt := range widths {
		row := []datum.Datum{datum.NewInt(int64(i)), datum.NewText(strings.Repeat("x", wdt))}
		if err := w.Append(row); err != nil {
			t.Fatalf("append %d (width %d): %v", i, wdt, err)
		}
	}
	pool := NewPool(8)
	h, err := w.Finish(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Rows() != int64(len(widths)) {
		t.Errorf("rows = %d", h.Rows())
	}
	it := h.ScanPrefix(len(h.types) - 1)
	for i, wdt := range widths {
		row, err := it.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row[0])
		}
		if len(row[1].Text()) != wdt {
			t.Fatalf("row %d width = %d, want %d", i, len(row[1].Text()), wdt)
		}
		if !strings.HasPrefix(row[1].Text(), "x") {
			t.Fatalf("row %d payload corrupt", i)
		}
	}
	if _, err := it.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestPoolEviction(t *testing.T) {
	dir := t.TempDir()
	// Build a heap with many pages.
	w, err := CreateHeap(filepath.Join(dir, "p.heap"), []datum.Type{datum.Text})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("y", 1000)
	for i := 0; i < 200; i++ { // ~7 tuples per page → ~29 pages
		if err := w.Append([]datum.Datum{datum.NewText(long)}); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(4) // far fewer frames than pages
	h, err := w.Finish(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.pages < 10 {
		t.Fatalf("expected many pages, got %d", h.pages)
	}
	// Two sequential scans: second scan of a 4-frame pool over 29 pages
	// still misses mostly (no locality), but correctness must hold.
	for pass := 0; pass < 2; pass++ {
		it := h.ScanPrefix(0)
		count := 0
		for {
			_, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			count++
		}
		if count != 200 {
			t.Fatalf("pass %d scanned %d", pass, count)
		}
	}
	// A scan that releases its pin between batches resumes at the next
	// tuple even when a second scan evicted its page in between.
	w2, err := CreateHeap(filepath.Join(dir, "q.heap"), []datum.Type{datum.Int, datum.Text})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := w2.Append([]datum.Datum{datum.NewInt(int64(i)), datum.NewText(long)}); err != nil {
			t.Fatal(err)
		}
	}
	h2, err := w2.Finish(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	it := h2.ScanPrefix(0)
	for i := 0; ; i++ {
		row, err := it.Next()
		if err == io.EOF {
			if i != 200 {
				t.Fatalf("batched scan ended after %d rows", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d resumed at %v", i, row[0])
		}
		if i%3 == 2 {
			it.Release()
			other := h.ScanPrefix(0)
			for j := 0; j < 40; j++ { // walks more pages than the pool has frames
				if _, err := other.Next(); err != nil {
					t.Fatal(err)
				}
			}
			other.Release()
		}
	}
}

func TestPoolAllPinned(t *testing.T) {
	dir := t.TempDir()
	w, _ := CreateHeap(filepath.Join(dir, "q.heap"), []datum.Type{datum.Int})
	for i := 0; i < 20000; i++ { // several pages
		if err := w.Append([]datum.Datum{datum.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewPool(4)
	h, err := w.Finish(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.pages < 5 {
		t.Skip("need more pages")
	}
	// Pin all frames.
	for p := uint32(0); p < 4; p++ {
		if _, err := pool.Get(PageID{File: h.fileID, PageNo: p}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pool.Get(PageID{File: h.fileID, PageNo: 4}); err == nil {
		t.Error("exhausted pool must error")
	}
}

func writeCSV(t *testing.T, path string, rows [][]string) {
	t.Helper()
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ","))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "t.csv")
	rng := rand.New(rand.NewSource(2))
	var rows [][]string
	for i := 0; i < 1000; i++ {
		rows = append(rows, []string{
			strconv.Itoa(i),
			strconv.FormatInt(rng.Int63n(100), 10),
			"name" + strconv.Itoa(i%10),
		})
	}
	writeCSV(t, csv, rows)
	tbl, err := schema.New("t", []schema.Column{
		{Name: "id", Type: datum.Int},
		{Name: "v", Type: datum.Int},
		{Name: "name", Type: datum.Text},
	}, csv, schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(16)
	rel, err := LoadCSV(tbl, filepath.Join(dir, "t.heap"), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Heap.Close()
	if rel.Stats.RowCount() != 1000 {
		t.Errorf("RowCount = %d", rel.Stats.RowCount())
	}
	if s := rel.Stats.Col(0); s == nil || s.Min.Int() != 0 || s.Max.Int() != 999 {
		t.Errorf("id stats = %+v", s)
	}
	if s := rel.Stats.Col(2); s == nil || s.Distinct != 10 {
		t.Errorf("name distinct = %+v", s)
	}
	// Scan back and verify order and values.
	it := rel.Heap.ScanPrefix(tbl.NumColumns() - 1)
	i := 0
	for {
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d: id %v", i, row[0])
		}
		i++
	}
	if i != 1000 {
		t.Errorf("scanned %d", i)
	}
}

func TestLoadCSVFieldCountMismatch(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "bad.csv")
	writeCSV(t, csv, [][]string{{"1", "2"}, {"3"}})
	tbl, _ := schema.New("b", []schema.Column{
		{Name: "a", Type: datum.Int},
		{Name: "b", Type: datum.Int},
	}, csv, schema.CSV)
	if _, err := LoadCSV(tbl, filepath.Join(dir, "b.heap"), NewPool(4)); err == nil {
		t.Error("short row must fail the load")
	}
}

func TestLoadCSVBadValue(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "bad2.csv")
	writeCSV(t, csv, [][]string{{"1"}, {"oops"}})
	tbl, _ := schema.New("b2", []schema.Column{{Name: "a", Type: datum.Int}}, csv, schema.CSV)
	if _, err := LoadCSV(tbl, filepath.Join(dir, "b2.heap"), NewPool(4)); err == nil {
		t.Error("unparseable value must fail the load")
	}
}

func TestDecodeTuplePrefix(t *testing.T) {
	row := sampleRow()
	buf := EncodeTuple(row, nil)
	types := sampleTypes()
	// Decode only the first two columns; the rest must be NULL.
	got, err := DecodeTuplePrefix(buf, types, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != -42 || got[1].Float() != 3.75 {
		t.Errorf("prefix values = %v", got[:2])
	}
	for i := 2; i < len(types); i++ {
		if !got[i].Null() {
			t.Errorf("column %d beyond prefix must be NULL, got %v", i, got[i])
		}
	}
	// upTo beyond width clamps to a full decode.
	full, err := DecodeTuplePrefix(buf, types, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full[2].Text() != "varlena string" {
		t.Errorf("clamped decode = %v", full[2])
	}
}

func TestScanPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateHeap(filepath.Join(dir, "p2.heap"), []datum.Type{datum.Int, datum.Text, datum.Int})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append([]datum.Datum{
			datum.NewInt(int64(i)), datum.NewText("xxxx"), datum.NewInt(int64(i * 2)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := w.Finish(NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	it := h.ScanPrefix(0)
	n := 0
	for {
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int() != int64(n) {
			t.Fatalf("row %d col0 = %v", n, row[0])
		}
		if !row[1].Null() || !row[2].Null() {
			t.Fatalf("columns beyond prefix must be NULL: %v", row)
		}
		n++
	}
	if n != 50 {
		t.Errorf("scanned %d", n)
	}
}
