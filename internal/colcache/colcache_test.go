package colcache

import (
	"fmt"
	"math/rand"
	"testing"

	"nodb/internal/datum"
)

func TestPutGetAllTypes(t *testing.T) {
	c := New(0)
	c.Put(0, 3, datum.Int, datum.NewInt(42))
	c.Put(1, 3, datum.Float, datum.NewFloat(2.5))
	c.Put(2, 3, datum.Text, datum.NewText("hi"))
	c.Put(3, 3, datum.Date, datum.NewDate(100))
	c.Put(4, 3, datum.Bool, datum.NewBool(true))

	if v, ok := c.Get(0, 3); !ok || v.Int() != 42 {
		t.Errorf("int: %v %v", v, ok)
	}
	if v, ok := c.Get(1, 3); !ok || v.Float() != 2.5 {
		t.Errorf("float: %v %v", v, ok)
	}
	if v, ok := c.Get(2, 3); !ok || v.Text() != "hi" {
		t.Errorf("text: %v %v", v, ok)
	}
	if v, ok := c.Get(3, 3); !ok || v.Int() != 100 || v.T != datum.Date {
		t.Errorf("date: %v %v", v, ok)
	}
	if v, ok := c.Get(4, 3); !ok || !v.Bool() {
		t.Errorf("bool: %v %v", v, ok)
	}
}

func TestSparseRowsAndMisses(t *testing.T) {
	c := New(0)
	c.Put(0, 100, datum.Int, datum.NewInt(1))
	if _, ok := c.Get(0, 99); ok {
		t.Error("row 99 was never cached")
	}
	if _, ok := c.Get(0, 101); ok {
		t.Error("row 101 was never cached")
	}
	if _, ok := c.Get(5, 0); ok {
		t.Error("column 5 was never cached")
	}
	if v, ok := c.Get(0, 100); !ok || v.Int() != 1 {
		t.Error("cached row lost")
	}
}

func TestNullCaching(t *testing.T) {
	c := New(0)
	c.Put(0, 0, datum.Int, datum.NewNull(datum.Int))
	v, ok := c.Get(0, 0)
	if !ok || !v.Null() || v.T != datum.Int {
		t.Errorf("cached NULL = %v %v", v, ok)
	}
}

func TestPresentNoSideEffects(t *testing.T) {
	c := New(0)
	c.Put(0, 1, datum.Int, datum.NewInt(7))
	before := c.Metrics()
	if !c.Present(0, 1) || c.Present(0, 2) || c.Present(9, 0) {
		t.Error("Present wrong")
	}
	if c.Metrics() != before {
		t.Error("Present must not touch metrics")
	}
}

func TestDuplicatePutKeepsFirst(t *testing.T) {
	c := New(0)
	c.Put(0, 0, datum.Int, datum.NewInt(1))
	c.Put(0, 0, datum.Int, datum.NewInt(2))
	if v, _ := c.Get(0, 0); v.Int() != 1 {
		t.Error("duplicate put must not overwrite")
	}
	if c.Metrics().Puts != 1 {
		t.Error("duplicate put must not count")
	}
}

func TestCoverage(t *testing.T) {
	c := New(0)
	for r := 0; r < 10; r++ {
		c.Put(0, r, datum.Int, datum.NewInt(int64(r)))
	}
	if c.CoveredRows(0) != 10 {
		t.Errorf("CoveredRows = %d", c.CoveredRows(0))
	}
	if !c.FullyCovers(0, 10) {
		t.Error("should fully cover 10 rows")
	}
	if c.FullyCovers(0, 11) {
		t.Error("should not cover 11 rows")
	}
	// Sparse gap breaks full coverage even when counts match.
	c2 := New(0)
	for r := 0; r < 10; r++ {
		if r != 4 {
			c2.Put(0, r, datum.Int, datum.NewInt(0))
		}
	}
	c2.Put(0, 11, datum.Int, datum.NewInt(0))
	if c2.FullyCovers(0, 10) {
		t.Error("gap at row 4 must break coverage")
	}
	if c.CoveredRows(7) != 0 {
		t.Error("unknown column coverage must be 0")
	}
}

func TestBudgetEvictionLRU(t *testing.T) {
	// Small budget: each text column entry is entryOverhead + rows*(16+len).
	budget := int64(2 * (entryOverhead + 10*(16+4) + 16))
	c := New(budget)
	fill := func(col int) {
		for r := 0; r < 10; r++ {
			c.Put(col, r, datum.Text, datum.NewText("abcd"))
		}
	}
	fill(0)
	fill(1)
	fill(2) // must evict col 0 (LRU, same conversion cost)
	if c.Metrics().Evictions == 0 {
		t.Fatal("expected eviction")
	}
	if c.Bytes() > budget {
		t.Errorf("bytes %d exceed budget %d", c.Bytes(), budget)
	}
	if c.Present(0, 0) {
		t.Error("LRU column should be evicted")
	}
	if !c.Present(2, 0) {
		t.Error("newest column must be present")
	}
}

func TestEvictionPrefersCheapConversion(t *testing.T) {
	// Two equally old columns: a float column (costly to convert) and a
	// text column (free). The text column must be evicted first.
	// Sizes: float col = 128+50*8+16 = 544, text col = 128+50*24+16 = 1344;
	// a 2000-byte budget forces eviction when the third column arrives.
	budget := int64(2000)
	c := New(budget)
	for r := 0; r < 50; r++ {
		c.Put(0, r, datum.Float, datum.NewFloat(float64(r))) // costly
	}
	for r := 0; r < 50; r++ {
		c.Put(1, r, datum.Text, datum.NewText("abcdefgh")) // cheap to rebuild
	}
	// Fill a third column to force eviction; float col 0 is older than
	// text col 1 but must be kept.
	for r := 0; r < 50; r++ {
		c.Put(2, r, datum.Int, datum.NewInt(int64(r)))
	}
	if !c.Present(0, 0) {
		t.Error("costly-to-convert float column should be kept")
	}
	if c.Present(1, 0) {
		t.Error("cheap text column should be evicted first")
	}
}

func TestBudgetTooSmall(t *testing.T) {
	c := New(10)
	c.Put(0, 0, datum.Int, datum.NewInt(1))
	if c.Present(0, 0) {
		t.Error("value cannot fit in a 10-byte budget")
	}
	if c.Bytes() > 10 {
		t.Errorf("bytes %d exceed tiny budget", c.Bytes())
	}
}

func TestDropAndDropAll(t *testing.T) {
	c := New(0)
	c.Put(0, 0, datum.Int, datum.NewInt(1))
	c.Put(1, 0, datum.Int, datum.NewInt(2))
	c.Drop(0)
	if c.Present(0, 0) {
		t.Error("dropped column present")
	}
	if !c.Present(1, 0) {
		t.Error("other column lost")
	}
	c.DropAll()
	if c.Present(1, 0) || c.Bytes() != 0 {
		t.Error("DropAll incomplete")
	}
}

func TestTruncate(t *testing.T) {
	c := New(0)
	for r := 0; r < 20; r++ {
		c.Put(0, r, datum.Text, datum.NewText("xyz"))
	}
	before := c.Bytes()
	c.Truncate(10)
	if c.CoveredRows(0) != 10 {
		t.Errorf("CoveredRows after truncate = %d", c.CoveredRows(0))
	}
	if c.Present(0, 15) {
		t.Error("truncated row present")
	}
	if !c.Present(0, 9) {
		t.Error("row below cut lost")
	}
	if c.Bytes() >= before {
		t.Error("truncate must release bytes")
	}
}

func TestUsage(t *testing.T) {
	c := New(1000)
	if c.Usage() != 0 {
		t.Error("empty cache usage must be 0")
	}
	for r := 0; r < 20; r++ {
		c.Put(0, r, datum.Int, datum.NewInt(1))
	}
	u := c.Usage()
	if u <= 0 || u > 1 {
		t.Errorf("usage = %f", u)
	}
	if New(0).Usage() != 0 {
		t.Error("unlimited budget usage must be 0")
	}
}

// Property: under random operations with a budget, accounting invariants
// hold and Get agrees with a shadow map for the entries still present.
func TestShadowConsistencyUnderEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	budget := int64(4000)
	c := New(budget)
	shadow := map[[2]int]int64{}
	for i := 0; i < 20000; i++ {
		col, row := rng.Intn(8), rng.Intn(200)
		if rng.Intn(2) == 0 {
			v := rng.Int63n(1000)
			wasPresent := c.Present(col, row)
			c.Put(col, row, datum.Int, datum.NewInt(v))
			if c.Present(col, row) && !wasPresent {
				shadow[[2]int{col, row}] = v
			}
		} else if got, ok := c.Get(col, row); ok {
			want, inShadow := shadow[[2]int{col, row}]
			if !inShadow || got.Int() != want {
				t.Fatalf("Get(%d,%d) = %d, shadow %d (in=%v)", col, row, got.Int(), want, inShadow)
			}
		}
		if c.Bytes() > budget {
			t.Fatalf("bytes %d exceed budget", c.Bytes())
		}
		if c.Bytes() < 0 {
			t.Fatal("negative bytes")
		}
	}
}

func TestCachedColumnsAndString(t *testing.T) {
	c := New(0)
	c.Put(3, 0, datum.Int, datum.NewInt(1))
	cols := c.CachedColumns()
	if len(cols) != 1 || cols[0] != 3 {
		t.Errorf("CachedColumns = %v", cols)
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestViewGetPut(t *testing.T) {
	c := New(0)
	v := c.View(0, datum.Int)
	if !v.Valid() {
		t.Fatal("view over unlimited cache must be valid")
	}
	if !v.Put(5, datum.NewInt(50)) {
		t.Fatal("put through view failed")
	}
	if got, ok := v.Get(5); !ok || got.Int() != 50 {
		t.Fatalf("view get = %v %v", got, ok)
	}
	if _, ok := v.Get(4); ok {
		t.Error("absent row must miss")
	}
	// Cache-level Get sees view writes.
	if got, ok := c.Get(0, 5); !ok || got.Int() != 50 {
		t.Fatalf("cache get after view put = %v %v", got, ok)
	}
	// NULL through view.
	v.Put(6, datum.NewNull(datum.Int))
	if got, ok := v.Get(6); !ok || !got.Null() {
		t.Error("null via view lost")
	}
}

func TestViewDetachmentAfterEviction(t *testing.T) {
	budget := int64(2 * (entryOverhead + 30*8 + 16))
	c := New(budget)
	v0 := c.View(0, datum.Int)
	for r := 0; r < 30; r++ {
		v0.Put(r, datum.NewInt(int64(r)))
	}
	// Fill two more columns to evict column 0.
	for col := 1; col <= 2; col++ {
		v := c.View(col, datum.Int)
		for r := 0; r < 30; r++ {
			v.Put(r, datum.NewInt(int64(col*100+r)))
		}
	}
	if c.Present(0, 3) {
		t.Fatal("column 0 should have been evicted")
	}
	// Detached view still reads its old (correct) data, and writes are
	// dropped without corrupting accounting.
	if got, ok := v0.Get(3); !ok || got.Int() != 3 {
		t.Errorf("detached view read = %v %v", got, ok)
	}
	if v0.Put(31, datum.NewInt(31)) {
		t.Error("write through detached view must be dropped")
	}
	if c.Bytes() > budget {
		t.Errorf("bytes %d exceed budget after detached write", c.Bytes())
	}
}

func TestViewInvalidWhenBudgetTooSmall(t *testing.T) {
	c := New(10)
	if c.View(0, datum.Int).Valid() {
		t.Error("view must be invalid when even the entry cannot fit")
	}
}

func BenchmarkViewGet(b *testing.B) {
	c := New(0)
	v := c.View(0, datum.Int)
	for r := 0; r < 1<<16; r++ {
		v.Put(r, datum.NewInt(int64(r)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Get(i & (1<<16 - 1))
	}
}

func BenchmarkCacheGet(b *testing.B) {
	c := New(0)
	for r := 0; r < 1<<16; r++ {
		c.Put(0, r, datum.Int, datum.NewInt(int64(r)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(0, i&(1<<16-1))
	}
}

func TestAbsorb(t *testing.T) {
	main := New(0)
	main.Put(0, 0, datum.Int, datum.NewInt(100))
	main.Put(1, 0, datum.Text, datum.NewText("zero"))

	sh := New(0)
	sh.Put(0, 0, datum.Int, datum.NewInt(101))
	sh.Put(0, 1, datum.Int, datum.NewNull(datum.Int))
	sh.Put(1, 0, datum.Text, datum.NewText("one"))
	// Sparse shard rows survive the shift.
	sh.Put(1, 70, datum.Text, datum.NewText("far"))

	main.Absorb(sh, 1)

	if v, ok := main.Get(0, 0); !ok || v.Int() != 100 {
		t.Errorf("pre-existing value lost: %v %v", v, ok)
	}
	if v, ok := main.Get(0, 1); !ok || v.Int() != 101 {
		t.Errorf("absorbed int = %v,%v", v, ok)
	}
	if v, ok := main.Get(0, 2); !ok || !v.Null() {
		t.Errorf("absorbed null = %v,%v", v, ok)
	}
	if v, ok := main.Get(1, 1); !ok || v.Text() != "one" {
		t.Errorf("absorbed text = %v,%v", v, ok)
	}
	if v, ok := main.Get(1, 71); !ok || v.Text() != "far" {
		t.Errorf("absorbed sparse row = %v,%v", v, ok)
	}
	if _, ok := main.Get(0, 3); ok {
		t.Error("row 3 should be absent")
	}
	// Nil shard is a no-op.
	main.Absorb(nil, 5)
	if main.CoveredRows(0) != 3 {
		t.Errorf("covered rows = %d", main.CoveredRows(0))
	}
}

func TestAbsorbRespectsBudget(t *testing.T) {
	main := New(entryOverhead + 64) // room for roughly one small column
	sh := New(0)
	for r := 0; r < 4; r++ {
		sh.Put(0, r, datum.Int, datum.NewInt(int64(r)))
		sh.Put(1, r, datum.Int, datum.NewInt(int64(r)))
	}
	main.Absorb(sh, 0)
	if main.Bytes() > main.Budget() {
		t.Errorf("budget exceeded: %d > %d", main.Bytes(), main.Budget())
	}
}

// TestGetBatchMatchesGet exercises the word-at-a-time GetBatch paths —
// dense NULL-free ranges (the arena fast path), NULL-bearing ranges, and
// ranges with absent rows — against per-row Get, across types and range
// alignments (word-straddling starts and lengths).
func TestGetBatchMatchesGet(t *testing.T) {
	types := []datum.Type{datum.Int, datum.Float, datum.Date, datum.Bool, datum.Text}
	mk := func(t datum.Type, r int) datum.Datum {
		switch t {
		case datum.Int:
			return datum.NewInt(int64(r * 3))
		case datum.Float:
			return datum.NewFloat(float64(r) / 2)
		case datum.Date:
			return datum.NewDate(int64(9000 + r))
		case datum.Bool:
			return datum.NewBool(r%3 == 0)
		default:
			return datum.NewText(fmt.Sprintf("s%d", r))
		}
	}
	const rows = 300
	for _, typ := range types {
		for _, variant := range []string{"dense", "nulls", "gaps"} {
			c := New(0)
			for r := 0; r < rows; r++ {
				switch {
				case variant == "gaps" && r == 170:
					continue // absent row inside the range
				case variant == "nulls" && r%37 == 0:
					c.Put(0, r, typ, datum.NewNull(typ))
				default:
					c.Put(0, r, typ, mk(typ, r))
				}
			}
			v := c.View(0, typ)
			for _, span := range [][2]int{{0, rows}, {1, 63}, {63, 2}, {60, 70}, {128, 64}, {150, 40}, {299, 1}} {
				start, n := span[0], span[1]
				dst := make([]datum.Datum, n)
				got := v.GetBatch(start, n, dst)
				want := true
				for r := start; r < start+n; r++ {
					if !c.Present(0, r) {
						want = false
						break
					}
				}
				if got != want {
					t.Fatalf("%v/%s GetBatch(%d,%d) = %v, want %v", typ, variant, start, n, got, want)
				}
				if !got {
					continue
				}
				for i := 0; i < n; i++ {
					ref, _ := v.Get(start + i)
					if dst[i] != ref {
						t.Fatalf("%v/%s row %d: batch %v, get %v", typ, variant, start+i, dst[i], ref)
					}
				}
			}
		}
	}
}

// TestBitRangeHelpers pins the mask arithmetic of the word-at-a-time
// range scans at word boundaries.
func TestBitRangeHelpers(t *testing.T) {
	bm := make([]uint64, 3)
	for i := 10; i < 140; i++ {
		bitSet(bm, i)
	}
	cases := []struct {
		start, n int
		all, any bool
	}{
		{10, 130, true, true},
		{9, 2, false, true},
		{0, 5, false, false},
		{63, 2, true, true},
		{64, 64, true, true},
		{139, 1, true, true},
		{140, 5, false, false},
		{130, 20, false, true},
		{0, 192, false, true},
		{100, 200, false, true}, // extends past the bitmap
		{200, 10, false, false}, // fully past the bitmap
	}
	for _, tc := range cases {
		if got := bitRangeAllSet(bm, tc.start, tc.n); got != tc.all {
			t.Errorf("bitRangeAllSet(%d,%d) = %v, want %v", tc.start, tc.n, got, tc.all)
		}
		if got := bitRangeAnySet(bm, tc.start, tc.n); got != tc.any {
			t.Errorf("bitRangeAnySet(%d,%d) = %v, want %v", tc.start, tc.n, got, tc.any)
		}
	}
}

// A column created after another has spanned the table is sized to that
// span at once: filling it row by row — what a scan does to a column the
// budget evicted earlier — never reallocates its arrays, and the values and
// accounting are what growing by doubling gave.
func TestNewColumnSizedToKnownSpan(t *testing.T) {
	const rows = 5000
	c := New(0)
	v0 := c.View(0, datum.Int)
	for r := 0; r < rows; r++ {
		v0.Put(r, datum.NewInt(int64(r)))
	}
	v1 := c.View(1, datum.Int)
	v1.Put(0, datum.NewInt(0))
	e := c.cols[1]
	if cap(e.ints) != rows || cap(e.present) != (rows+63)/64 || cap(e.nulls) != (rows+63)/64 {
		t.Fatalf("capacity after the first value: ints=%d present=%d nulls=%d, want %d, %d, %d",
			cap(e.ints), cap(e.present), cap(e.nulls), rows, (rows+63)/64, (rows+63)/64)
	}
	ints, present := &e.ints[0], &e.present[0]
	for r := 1; r < rows; r++ {
		v1.Put(r, datum.NewInt(int64(-r)))
	}
	if &e.ints[0] != ints || &e.present[0] != present || len(e.ints) != rows {
		t.Error("filling the column reallocated its arrays")
	}
	if e.bytes != c.cols[0].bytes {
		t.Errorf("accounted bytes differ: %d vs %d", e.bytes, c.cols[0].bytes)
	}
	for _, r := range []int{0, 1, rows / 2, rows - 1} {
		if d, ok := c.Get(1, r); !ok || d.Int() != int64(-r) {
			t.Errorf("row %d = %v %v", r, d, ok)
		}
	}
	if _, ok := c.Get(1, rows); ok {
		t.Error("row past the span reads as cached")
	}

	// A longer column still grows past the hint, and raises it.
	v1.Put(rows+10, datum.NewInt(7))
	if d, ok := c.Get(1, rows+10); !ok || d.Int() != 7 {
		t.Errorf("row past the hint = %v %v", d, ok)
	}
	v2 := c.View(2, datum.Float)
	v2.Put(3, datum.NewFloat(1.5))
	if got := cap(c.cols[2].floats); got != rows+11 {
		t.Errorf("capacity after the span grew: %d, want %d", got, rows+11)
	}
	// A shrunken file lowers it again.
	c.Truncate(100)
	v3 := c.View(3, datum.Int)
	v3.Put(0, datum.NewInt(1))
	if got := cap(c.cols[3].ints); got != 100 {
		t.Errorf("capacity after Truncate(100): %d, want 100", got)
	}
}
