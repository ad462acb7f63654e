package posmap

import (
	"math/rand"
	"testing"

	"nodb/internal/chunkdir"
)

const (
	chunkRows  = chunkdir.ChunkRows
	chunkBytes = chunkRows*4 + 64 // accounted size of one chunk of positions
)

// record stores one position through a fresh cursor, as a sparse writer
// would.
func record(m *Map, row, attr int, rel uint32) { m.Cursor(attr).Record(row, rel) }

// tupleStart returns the recorded start of tuple row.
func tupleStart(m *Map, row int) (int64, bool) {
	if starts := m.d.Starts(); row >= 0 && row < len(starts) {
		return starts[row], true
	}
	return 0, false
}

// lookup reads (row, attr) the way Nearest's exact hit does: a hit touches
// the chunk in the LRU.
func lookup(m *Map, row, attr int) (uint32, bool) {
	a, rel, ok := m.Nearest(row, attr)
	if !ok || a != attr {
		return 0, false
	}
	return rel, true
}

func TestRecordLookup(t *testing.T) {
	m := New(10, Options{})
	m.RecordTupleStart(0, 0)
	m.RecordTupleStart(1, 100)
	record(m, 0, 3, 17)
	record(m, 1, 3, 19)

	if off, ok := tupleStart(m, 1); !ok || off != 100 {
		t.Errorf("TupleStart(1) = %d,%v", off, ok)
	}
	if _, ok := tupleStart(m, 5); ok {
		t.Error("unknown tuple must miss")
	}
	if rel, ok := lookup(m, 0, 3); !ok || rel != 17 {
		t.Errorf("Lookup(0,3) = %d,%v", rel, ok)
	}
	if _, ok := lookup(m, 0, 4); ok {
		t.Error("unrecorded attr must miss")
	}
	if _, ok := lookup(m, 7, 3); ok {
		t.Error("unrecorded row must miss")
	}
	if m.d.NumTuples() != 2 {
		t.Errorf("NumTuples = %d", m.d.NumTuples())
	}
}

func TestRecordOverwriteDoesNotDoubleCount(t *testing.T) {
	m := New(4, Options{})
	record(m, 0, 1, 5)
	record(m, 0, 1, 6)
	if p := m.Metrics().Pointers; p != 1 {
		t.Errorf("Pointers = %d, want 1", p)
	}
	if rel, _ := lookup(m, 0, 1); rel != 6 {
		t.Errorf("overwrite lost: %d", rel)
	}
}

func TestRecordBoundsIgnored(t *testing.T) {
	m := New(3, Options{})
	record(m, -1, 0, 1)
	record(m, 0, -1, 1)
	record(m, 0, 3, 1)
	if m.Metrics().Pointers != 0 {
		t.Error("out-of-range records must be ignored")
	}
}

func TestNearest(t *testing.T) {
	m := New(20, Options{})
	record(m, 0, 4, 40)
	record(m, 0, 8, 80)

	// Exact hit.
	if a, rel, ok := m.Nearest(0, 8); !ok || a != 8 || rel != 80 {
		t.Errorf("Nearest exact = %d,%d,%v", a, rel, ok)
	}
	// 9 is closest to 8.
	if a, rel, ok := m.Nearest(0, 9); !ok || a != 8 || rel != 80 {
		t.Errorf("Nearest(9) = %d,%d,%v want 8", a, rel, ok)
	}
	// 6 ties between 4 and 8; lower attribute wins.
	if a, _, ok := m.Nearest(0, 6); !ok || a != 4 {
		t.Errorf("Nearest(6) = %d, want 4 on tie", a)
	}
	// 2 is closest to 4.
	if a, _, ok := m.Nearest(0, 2); !ok || a != 4 {
		t.Errorf("Nearest(2) = %d, want 4", a)
	}
	// Row with no info at all.
	if _, _, ok := m.Nearest(3, 5); ok {
		t.Error("Nearest on empty row must miss")
	}
}

func TestBudgetEviction(t *testing.T) {
	// Budget for exactly 2 chunks.
	m := New(8, Options{Budget: 2 * chunkBytes})
	// Fill three distinct chunks in three separate scans: attr 0 rows
	// 0-15, attr 1 rows 0-15, attr 2. (Within one scan chunks are pinned
	// and recording would stop instead of evicting.)
	for a := 0; a < 3; a++ {
		m.BeginScan()
		for r := 0; r < chunkRows; r++ {
			record(m, r, a, uint32(a*100+r))
		}
	}
	met := m.Metrics()
	if met.Evictions == 0 {
		t.Fatal("expected evictions under budget pressure")
	}
	if m.MemoryBytes() > 2*chunkBytes {
		t.Errorf("memory %d exceeds budget", m.MemoryBytes())
	}
	// attr 0 chunk (least recently used) must be gone; attr 2 present.
	if _, ok := lookup(m, 0, 0); ok {
		t.Error("LRU chunk should have been evicted")
	}
	if rel, ok := lookup(m, 5, 2); !ok || rel != 205 {
		t.Error("most recent chunk must survive")
	}
}

func TestBudgetTooSmallForOneChunk(t *testing.T) {
	m := New(4, Options{Budget: 10})
	record(m, 0, 0, 1)
	if m.Metrics().Pointers != 0 {
		t.Error("budget below one chunk must drop records silently")
	}
	if _, ok := lookup(m, 0, 0); ok {
		t.Error("nothing should be stored")
	}
}

func TestLRUTouchOnLookup(t *testing.T) {
	m := New(8, Options{Budget: 2 * chunkBytes})
	m.BeginScan()
	for r := 0; r < chunkRows; r++ {
		record(m, r, 0, uint32(r))
	}
	m.BeginScan()
	for r := 0; r < chunkRows; r++ {
		record(m, r, 1, uint32(r))
	}
	// Touch attr 0 so attr 1 becomes the LRU victim.
	m.BeginScan()
	if _, ok := lookup(m, 3, 0); !ok {
		t.Fatal("attr0 should be present")
	}
	for r := 0; r < chunkRows; r++ {
		record(m, r, 2, uint32(r))
	}
	if _, ok := lookup(m, 3, 0); !ok {
		t.Error("recently touched chunk evicted")
	}
	if _, ok := lookup(m, 3, 1); ok {
		t.Error("LRU chunk should be evicted")
	}
}

func TestScanPinningPreventsSelfEviction(t *testing.T) {
	// Budget for one chunk: a single scan recording two attributes must
	// keep the first chunk (pinned) and drop the second recording rather
	// than churn.
	m := New(4, Options{Budget: 1 * chunkBytes})
	m.BeginScan()
	for r := 0; r < chunkRows; r++ {
		record(m, r, 0, uint32(r))
	}
	for r := 0; r < chunkRows; r++ {
		record(m, r, 1, uint32(100+r))
	}
	if _, ok := lookup(m, 3, 0); !ok {
		t.Error("chunk touched by the current scan must not be evicted")
	}
	if _, ok := lookup(m, 3, 1); ok {
		t.Error("second attribute should not have been recorded (no room)")
	}
	if m.Metrics().Evictions != 0 {
		t.Errorf("evictions = %d, want 0 within one scan", m.Metrics().Evictions)
	}
	// The next scan may evict the now-unpinned chunk.
	m.BeginScan()
	for r := 0; r < chunkRows; r++ {
		record(m, r, 1, uint32(100+r))
	}
	if _, ok := lookup(m, 3, 1); !ok {
		t.Error("new scan should be able to claim the budget")
	}
}

func TestDrop(t *testing.T) {
	m := New(4, Options{})
	m.RecordTupleStart(0, 0)
	record(m, 0, 1, 3)
	m.d.Drop()
	if _, ok := lookup(m, 0, 1); ok {
		t.Error("Drop must clear attr positions")
	}
	if m.d.NumTuples() != 0 {
		t.Error("Drop must clear tuple starts")
	}
	if m.MemoryBytes() != 0 || m.Metrics().Pointers != 0 {
		t.Error("accounting not reset")
	}
	// Map must remain usable after Drop.
	m.RecordTupleStart(0, 5)
	record(m, 0, 1, 9)
	if rel, ok := lookup(m, 0, 1); !ok || rel != 9 {
		t.Error("map unusable after Drop")
	}
	if off, ok := tupleStart(m, 0); !ok || off != 5 {
		t.Errorf("tuple start after Drop = %d,%v, want 5,true", off, ok)
	}
}

// Property: against a brute-force shadow map, Lookup agrees after a random
// mix of records (no budget).
func TestLookupMatchesShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(13, Options{})
	shadow := map[[2]int]uint32{}
	for i := 0; i < 5000; i++ {
		row, attr := rng.Intn(3*chunkRows), rng.Intn(13)
		rel := uint32(rng.Intn(1 << 20))
		record(m, row, attr, rel)
		shadow[[2]int{row, attr}] = rel
	}
	for i := 0; i < 5000; i++ {
		row, attr := rng.Intn(3*chunkRows), rng.Intn(13)
		want, wantOK := shadow[[2]int{row, attr}]
		got, ok := lookup(m, row, attr)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("Lookup(%d,%d) = %d,%v want %d,%v", row, attr, got, ok, want, wantOK)
		}
	}
	if int64(len(shadow)) != m.Metrics().Pointers {
		t.Errorf("pointer count %d != shadow %d", m.Metrics().Pointers, len(shadow))
	}
}

// Property: pointer accounting never goes negative and memory stays within
// budget under random operations with eviction.
func TestInvariantsUnderPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	budget := int64(3 * chunkBytes)
	m := New(6, Options{Budget: budget})
	for i := 0; i < 20000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			record(m, rng.Intn(5*chunkRows), rng.Intn(6), uint32(rng.Intn(1000)))
		case 2:
			lookup(m, rng.Intn(5*chunkRows), rng.Intn(6))
		}
		if m.MemoryBytes() > budget {
			t.Fatalf("memory %d exceeds budget %d", m.MemoryBytes(), budget)
		}
		if m.Metrics().Pointers < 0 {
			t.Fatal("negative pointer count")
		}
	}
}

func TestCursorMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(6, Options{})
	m.BeginScan()
	// Record through cursors in mostly-sequential order, verify via Map.
	cursors := make([]*Cursor, 6)
	for a := range cursors {
		cursors[a] = m.Cursor(a)
	}
	shadow := map[[2]int]uint32{}
	for row := 0; row < 3*chunkRows; row++ {
		for a := 0; a < 6; a++ {
			if rng.Intn(3) == 0 {
				continue
			}
			rel := uint32(rng.Intn(1 << 16))
			cursors[a].Record(row, rel)
			shadow[[2]int{row, a}] = rel
		}
	}
	for key, want := range shadow {
		if got, ok := lookup(m, key[0], key[1]); !ok || got != want {
			t.Fatalf("Lookup(%d,%d) = %d,%v want %d", key[0], key[1], got, ok, want)
		}
		cu := m.Cursor(key[1])
		if got, ok := cu.Get(key[0]); !ok || got != want {
			t.Fatalf("Cursor.Get(%d,%d) = %d,%v want %d", key[0], key[1], got, ok, want)
		}
	}
	if int64(len(shadow)) != m.Metrics().Pointers {
		t.Errorf("pointers %d != shadow %d", m.Metrics().Pointers, len(shadow))
	}
}

func TestCursorSurvivesEviction(t *testing.T) {
	// A cursor whose chunk is evicted must keep returning correct data
	// or clean misses, never wrong data.
	m := New(4, Options{Budget: 2 * chunkBytes})
	m.BeginScan()
	cu := m.Cursor(0)
	for r := 0; r < chunkRows; r++ {
		cu.Record(r, uint32(r+1))
	}
	// Next scans evict attr 0 by filling other attributes.
	for a := 1; a < 3; a++ {
		m.BeginScan()
		for r := 0; r < chunkRows; r++ {
			record(m, r, a, uint32(a*100+r))
		}
	}
	for r := 0; r < chunkRows; r++ {
		if got, ok := cu.Get(r); ok && got != uint32(r+1) {
			t.Fatalf("stale cursor returned wrong value %d for row %d", got, r)
		}
	}
}

func TestNearestFastRejectAfterEviction(t *testing.T) {
	m := New(4, Options{Budget: 1 * chunkBytes})
	m.BeginScan()
	for r := 0; r < chunkRows; r++ {
		record(m, r, 0, uint32(r))
	}
	// Rows in untouched ranges must reject in O(1) (can't observe time,
	// but must miss).
	if _, _, ok := m.Nearest(3*chunkRows, 2); ok {
		t.Error("row without chunks must miss")
	}
	// Present range finds the neighbor.
	if a, _, ok := m.Nearest(5, 2); !ok || a != 0 {
		t.Errorf("Nearest = %d,%v", a, ok)
	}
}

func BenchmarkCursorRecord(b *testing.B) {
	m := New(1, Options{})
	m.BeginScan()
	cu := m.Cursor(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cu.Record(i, uint32(i))
	}
}

func BenchmarkCursorGet(b *testing.B) {
	m := New(1, Options{})
	m.BeginScan()
	cu := m.Cursor(0)
	for i := 0; i < 1<<16; i++ {
		cu.Record(i, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cu.Get(i & (1<<16 - 1))
	}
}

func BenchmarkNearestHit(b *testing.B) {
	m := New(1, Options{})
	m.BeginScan()
	for i := 0; i < 1<<16; i++ {
		record(m, i, 0, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(m, i&(1<<16-1), 0)
	}
}

func TestAbsorb(t *testing.T) {
	// The map covers rows [0, 1300) of 3 attributes; two shards cover the
	// rest, as partition workers would build them with local row numbers,
	// merging at offsets off chunk boundaries.
	const main, n1 = 1300, 900
	m := New(3, Options{})
	for r := 0; r < main; r++ {
		m.RecordTupleStart(r, int64(r*10))
		for a := 0; a < 3; a++ {
			record(m, r, a, uint32(a*2))
		}
	}
	sh1 := New(3, Options{})
	for r := 0; r < n1; r++ {
		sh1.RecordTupleStart(r, int64((main+r)*10))
		record(sh1, r, 1, uint32(100+r))
	}
	sh2 := New(3, Options{})
	sh2.RecordTupleStart(0, (main+n1)*10)
	record(sh2, 0, 2, 7)

	m.d.Absorb(sh1.d, main)
	m.d.Absorb(sh2.d, main+n1)

	total := main + n1 + 1
	if m.d.NumTuples() != total {
		t.Fatalf("tuples = %d", m.d.NumTuples())
	}
	for r := 0; r < total; r++ {
		off, ok := tupleStart(m, r)
		if !ok || off != int64(r*10) {
			t.Errorf("tuple %d start = %d,%v", r, off, ok)
		}
	}
	for r := main; r < main+n1; r++ {
		if rel, ok := lookup(m, r, 1); !ok || rel != uint32(100+r-main) {
			t.Fatalf("row %d attr 1 = %d,%v", r, rel, ok)
		}
		if _, ok := lookup(m, r, 0); ok {
			t.Fatalf("row %d attr 0 should be absent", r)
		}
	}
	if rel, ok := lookup(m, main+n1, 2); !ok || rel != 7 {
		t.Errorf("row %d attr 2 = %d,%v", main+n1, rel, ok)
	}
	// Pre-existing rows are untouched.
	if rel, ok := lookup(m, 2, 2); !ok || rel != 4 {
		t.Errorf("row 2 attr 2 = %d,%v", rel, ok)
	}
	// Pointer accounting covers absorbed entries.
	want := int64(main*3 + n1 + 1)
	if got := m.Metrics().Pointers; got != want {
		t.Errorf("pointers = %d, want %d", got, want)
	}
	// Nil shard is a no-op.
	m.d.Absorb(nil, total)
	if m.d.NumTuples() != total {
		t.Error("nil shard changed the map")
	}
}

func TestAbsorbRespectsBudget(t *testing.T) {
	// Destination budget fits exactly one chunk; absorbing two attributes
	// keeps the map within budget instead of overflowing.
	m := New(2, Options{Budget: chunkBytes})
	sh := New(2, Options{})
	for r := 0; r < chunkRows; r++ {
		sh.RecordTupleStart(r, int64(r))
		record(sh, r, 0, 1)
		record(sh, r, 1, 2)
	}
	m.d.Absorb(sh.d, 0)
	if m.MemoryBytes() > chunkBytes {
		t.Errorf("budget exceeded: %d", m.MemoryBytes())
	}
	if m.d.NumTuples() != chunkRows {
		t.Errorf("tuple starts must always merge: %d", m.d.NumTuples())
	}
}
