package colcache

import (
	"fmt"
	"math/rand"
	"testing"

	"nodb/internal/datum"
)

// entryOverhead is the fixed accounted footprint of one cached column.
const entryOverhead = 128

// cachedRows counts the cached rows of col (up to row 1<<14).
func cachedRows(c *Cache, col int) int {
	n := 0
	for r := 0; r < 1<<14; r++ {
		if present(c, col, r) {
			n++
		}
	}
	return n
}

// put caches d at (col, row) through a fresh view, as a scan that touches
// the column does.
func put(c *Cache, col, row int, typ datum.Type, d datum.Datum) {
	v := c.View(col, typ)
	v.Put(row, d)
}

// get reads (col, row) through a read-only view.
func get(c *Cache, col, row int) (datum.Datum, bool) {
	v := c.ReadView(col)
	return v.Get(row)
}

func present(c *Cache, col, row int) bool {
	_, ok := get(c, col, row)
	return ok
}

func TestPutGetAllTypes(t *testing.T) {
	c := New(0)
	put(c, 0, 3, datum.Int, datum.NewInt(42))
	put(c, 1, 3, datum.Float, datum.NewFloat(2.5))
	put(c, 2, 3, datum.Text, datum.NewText("hi"))
	put(c, 3, 3, datum.Date, datum.NewDate(100))
	put(c, 4, 3, datum.Bool, datum.NewBool(true))

	if v, ok := get(c, 0, 3); !ok || v.Int() != 42 {
		t.Errorf("int: %v %v", v, ok)
	}
	if v, ok := get(c, 1, 3); !ok || v.Float() != 2.5 {
		t.Errorf("float: %v %v", v, ok)
	}
	if v, ok := get(c, 2, 3); !ok || v.Text() != "hi" {
		t.Errorf("text: %v %v", v, ok)
	}
	if v, ok := get(c, 3, 3); !ok || v.Int() != 100 || v.T != datum.Date {
		t.Errorf("date: %v %v", v, ok)
	}
	if v, ok := get(c, 4, 3); !ok || !v.Bool() {
		t.Errorf("bool: %v %v", v, ok)
	}
}

func TestSparseRowsAndMisses(t *testing.T) {
	c := New(0)
	put(c, 0, 100, datum.Int, datum.NewInt(1))
	if _, ok := get(c, 0, 99); ok {
		t.Error("row 99 was never cached")
	}
	if _, ok := get(c, 0, 101); ok {
		t.Error("row 101 was never cached")
	}
	if _, ok := get(c, 5, 0); ok {
		t.Error("column 5 was never cached")
	}
	if v, ok := get(c, 0, 100); !ok || v.Int() != 1 {
		t.Error("cached row lost")
	}
}

func TestNullCaching(t *testing.T) {
	c := New(0)
	put(c, 0, 0, datum.Int, datum.NewNull(datum.Int))
	v, ok := get(c, 0, 0)
	if !ok || !v.Null() || v.T != datum.Int {
		t.Errorf("cached NULL = %v %v", v, ok)
	}
}

// TestReadViewNoSideEffects: a read-only view creates no entry and moves
// nothing in the LRU, so concurrent cache scans can share the cache.
func TestReadViewNoSideEffects(t *testing.T) {
	c := New(0)
	put(c, 0, 1, datum.Int, datum.NewInt(7))
	put(c, 1, 1, datum.Int, datum.NewInt(8))
	bytes := c.Bytes()
	if !present(c, 0, 1) || present(c, 0, 2) || present(c, 9, 0) {
		t.Error("ReadView reads wrong")
	}
	if c.ReadView(9).Valid() {
		t.Error("ReadView of an uncached column must be invalid")
	}
	if c.Bytes() != bytes || len(c.d.CachedColumns()) != 2 {
		t.Error("ReadView must not create entries")
	}
	// Under a budget for two one-value columns, a third evicts the least
	// recently used: column 0, however often ReadView read it.
	c = New(2 * (entryOverhead + 16 + 8))
	put(c, 0, 1, datum.Int, datum.NewInt(7))
	put(c, 1, 1, datum.Int, datum.NewInt(8))
	if !present(c, 0, 1) {
		t.Fatal("column 0 not cached")
	}
	put(c, 2, 1, datum.Int, datum.NewInt(9))
	if present(c, 0, 1) || !present(c, 1, 1) {
		t.Error("ReadView touched the LRU: column 1 was evicted instead of column 0")
	}
}

func TestDuplicatePutKeepsFirst(t *testing.T) {
	c := New(0)
	put(c, 0, 0, datum.Int, datum.NewInt(1))
	put(c, 0, 0, datum.Int, datum.NewInt(2))
	bytes := c.Bytes()
	put(c, 0, 0, datum.Int, datum.NewInt(2))
	if v, _ := get(c, 0, 0); v.Int() != 1 {
		t.Error("duplicate put must not overwrite")
	}
	if c.Bytes() != bytes {
		t.Error("duplicate put must not be accounted")
	}
}

func TestCoverage(t *testing.T) {
	c := New(0)
	for r := 0; r < 10; r++ {
		put(c, 0, r, datum.Int, datum.NewInt(int64(r)))
	}
	if n := cachedRows(c, 0); n != 10 {
		t.Errorf("rows present = %d", n)
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
			put(c2, 0, r, datum.Int, datum.NewInt(0))
		}
	}
	put(c2, 0, 11, datum.Int, datum.NewInt(0))
	if c2.FullyCovers(0, 10) {
		t.Error("gap at row 4 must break coverage")
	}
	if c.FullyCovers(7, 1) {
		t.Error("an unknown column covers nothing")
	}
}

func TestBudgetEvictionLRU(t *testing.T) {
	// Small budget: each text column entry is entryOverhead + rows*(16+len).
	budget := int64(2 * (entryOverhead + 10*(16+4) + 16))
	c := New(budget)
	fill := func(col int) {
		for r := 0; r < 10; r++ {
			put(c, col, r, datum.Text, datum.NewText("abcd"))
		}
	}
	fill(0)
	fill(1)
	fill(2) // must evict col 0 (LRU, same conversion cost)
	if c.Bytes() > budget {
		t.Errorf("bytes %d exceed budget %d", c.Bytes(), budget)
	}
	if present(c, 0, 0) {
		t.Error("LRU column should be evicted")
	}
	if !present(c, 2, 0) {
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
		put(c, 0, r, datum.Float, datum.NewFloat(float64(r))) // costly
	}
	for r := 0; r < 50; r++ {
		put(c, 1, r, datum.Text, datum.NewText("abcdefgh")) // cheap to rebuild
	}
	// Fill a third column to force eviction; float col 0 is older than
	// text col 1 but must be kept.
	for r := 0; r < 50; r++ {
		put(c, 2, r, datum.Int, datum.NewInt(int64(r)))
	}
	if !present(c, 0, 0) {
		t.Error("costly-to-convert float column should be kept")
	}
	if present(c, 1, 0) {
		t.Error("cheap text column should be evicted first")
	}
}

func TestBudgetTooSmall(t *testing.T) {
	c := New(10)
	put(c, 0, 0, datum.Int, datum.NewInt(1))
	if present(c, 0, 0) {
		t.Error("value cannot fit in a 10-byte budget")
	}
	if c.Bytes() > 10 {
		t.Errorf("bytes %d exceed tiny budget", c.Bytes())
	}
}

func TestDropAndDropAll(t *testing.T) {
	c := New(0)
	put(c, 0, 0, datum.Int, datum.NewInt(1))
	put(c, 1, 0, datum.Int, datum.NewInt(2))
	c.d.Drop()
	if present(c, 1, 0) || c.Bytes() != 0 {
		t.Error("DropAll incomplete")
	}
}

func TestUsage(t *testing.T) {
	c := New(1000)
	if c.Usage() != 0 {
		t.Error("empty cache usage must be 0")
	}
	for r := 0; r < 20; r++ {
		put(c, 0, r, datum.Int, datum.NewInt(1))
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
			wasPresent := present(c, col, row)
			put(c, col, row, datum.Int, datum.NewInt(v))
			if present(c, col, row) && !wasPresent {
				shadow[[2]int{col, row}] = v
			}
		} else if got, ok := get(c, col, row); ok {
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

func TestCachedColumns(t *testing.T) {
	c := New(0)
	put(c, 3, 0, datum.Int, datum.NewInt(1))
	cols := c.d.CachedColumns()
	if len(cols) != 1 || cols[0] != 3 {
		t.Errorf("CachedColumns = %v", cols)
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
	// Another view sees the writes.
	if got, ok := get(c, 0, 5); !ok || got.Int() != 50 {
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
	if present(c, 0, 3) {
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

func TestAbsorb(t *testing.T) {
	main := New(0)
	put(main, 0, 0, datum.Int, datum.NewInt(100))
	put(main, 1, 0, datum.Text, datum.NewText("zero"))

	sh := New(0)
	put(sh, 0, 0, datum.Int, datum.NewInt(101))
	put(sh, 0, 1, datum.Int, datum.NewNull(datum.Int))
	put(sh, 1, 0, datum.Text, datum.NewText("one"))
	// Sparse shard rows survive the shift.
	put(sh, 1, 70, datum.Text, datum.NewText("far"))

	main.Absorb(sh, 1)

	if v, ok := get(main, 0, 0); !ok || v.Int() != 100 {
		t.Errorf("pre-existing value lost: %v %v", v, ok)
	}
	if v, ok := get(main, 0, 1); !ok || v.Int() != 101 {
		t.Errorf("absorbed int = %v,%v", v, ok)
	}
	if v, ok := get(main, 0, 2); !ok || !v.Null() {
		t.Errorf("absorbed null = %v,%v", v, ok)
	}
	if v, ok := get(main, 1, 1); !ok || v.Text() != "one" {
		t.Errorf("absorbed text = %v,%v", v, ok)
	}
	if v, ok := get(main, 1, 71); !ok || v.Text() != "far" {
		t.Errorf("absorbed sparse row = %v,%v", v, ok)
	}
	if _, ok := get(main, 0, 3); ok {
		t.Error("row 3 should be absent")
	}
	// Nil shard is a no-op.
	main.Absorb(nil, 5)
	if n := cachedRows(main, 0); n != 3 {
		t.Errorf("rows present = %d", n)
	}
}

func TestAbsorbRespectsBudget(t *testing.T) {
	const budget = entryOverhead + 64 // room for roughly one small column
	main := New(budget)
	sh := New(0)
	for r := 0; r < 4; r++ {
		put(sh, 0, r, datum.Int, datum.NewInt(int64(r)))
		put(sh, 1, r, datum.Int, datum.NewInt(int64(r)))
	}
	main.Absorb(sh, 0)
	if main.Bytes() > budget {
		t.Errorf("budget exceeded: %d > %d", main.Bytes(), budget)
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
	const rows = 2500 // crosses two chunk boundaries
	for _, typ := range types {
		for _, variant := range []string{"dense", "nulls", "gaps"} {
			c := New(0)
			for r := 0; r < rows; r++ {
				switch {
				case variant == "gaps" && r == 170:
					continue // absent row inside the range
				case variant == "nulls" && r%37 == 0:
					put(c, 0, r, typ, datum.NewNull(typ))
				default:
					put(c, 0, r, typ, mk(typ, r))
				}
			}
			v := c.View(0, typ)
			for _, span := range [][2]int{{0, rows}, {1, 63}, {63, 2}, {60, 70}, {128, 64}, {150, 40}, {299, 1}, {1000, 100}, {1020, 1100}, {2047, 2}, {2499, 1}} {
				start, n := span[0], span[1]
				dst := make([]datum.Datum, n)
				got := v.GetBatch(start, n, dst)
				want := true
				for r := start; r < start+n; r++ {
					if !present(c, 0, r) {
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

// TestAbsorbColumnThatCannotFit: under a budget a shard column merges whole
// or not at all, and the cache stays within budget either way.
func TestAbsorbColumnThatCannotFit(t *testing.T) {
	sh := New(0)
	for r := 0; r < 100; r++ {
		put(sh, 0, r, datum.Int, datum.NewInt(int64(r)))
		if r < 10 {
			put(sh, 1, r, datum.Int, datum.NewInt(int64(r)))
		}
	}
	const budget = entryOverhead*2 + 16 + 10*8 + 64 // column 1 fits, column 0 never
	main := New(budget)
	main.Absorb(sh, 5)
	if main.Bytes() > budget {
		t.Errorf("budget exceeded: %d > %d", main.Bytes(), budget)
	}
	if n := cachedRows(main, 0); n != 0 {
		t.Errorf("oversized column partially merged: %d rows", n)
	}
	if n := cachedRows(main, 1); n != 10 {
		t.Errorf("fitting column merged %d rows, want 10", n)
	}
	if v, ok := get(main, 1, 14); !ok || v.Int() != 9 {
		t.Errorf("Get(1,14) = %v,%v", v, ok)
	}
}

// BenchmarkAbsorb merges a 4-column × 10000-row shard at an unaligned row
// offset, the shape of a parallel cold scan's second partition.
func BenchmarkAbsorb(b *testing.B) {
	const cols, rows = 4, 10000
	sh := New(0)
	for col := 0; col < cols; col++ {
		v := sh.View(col, datum.Int)
		for r := 0; r < rows; r++ {
			v.Put(r, datum.NewInt(int64(r)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(0).Absorb(sh, 9999)
	}
}
