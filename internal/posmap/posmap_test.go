package posmap

import (
	"math/rand"
	"testing"
)

func TestRecordLookup(t *testing.T) {
	m := New(10, Options{})
	m.RecordTupleStart(0, 0)
	m.RecordTupleStart(1, 100)
	m.Record(0, 3, 17)
	m.Record(1, 3, 19)

	if off, ok := m.TupleStart(1); !ok || off != 100 {
		t.Errorf("TupleStart(1) = %d,%v", off, ok)
	}
	if _, ok := m.TupleStart(5); ok {
		t.Error("unknown tuple must miss")
	}
	if rel, ok := m.Lookup(0, 3); !ok || rel != 17 {
		t.Errorf("Lookup(0,3) = %d,%v", rel, ok)
	}
	if _, ok := m.Lookup(0, 4); ok {
		t.Error("unrecorded attr must miss")
	}
	if _, ok := m.Lookup(7, 3); ok {
		t.Error("unrecorded row must miss")
	}
	if m.NumTuples() != 2 {
		t.Errorf("NumTuples = %d", m.NumTuples())
	}
}

func TestRecordOverwriteDoesNotDoubleCount(t *testing.T) {
	m := New(4, Options{})
	m.Record(0, 1, 5)
	m.Record(0, 1, 6)
	if p := m.Metrics().Pointers; p != 1 {
		t.Errorf("Pointers = %d, want 1", p)
	}
	if rel, _ := m.Lookup(0, 1); rel != 6 {
		t.Errorf("overwrite lost: %d", rel)
	}
}

func TestRecordBoundsIgnored(t *testing.T) {
	m := New(3, Options{})
	m.Record(-1, 0, 1)
	m.Record(0, -1, 1)
	m.Record(0, 3, 1)
	if m.Metrics().Pointers != 0 {
		t.Error("out-of-range records must be ignored")
	}
}

func TestNearest(t *testing.T) {
	m := New(20, Options{})
	m.Record(0, 4, 40)
	m.Record(0, 8, 80)

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
	m := New(8, Options{ChunkRows: 16, Budget: 2 * (16*4 + 64)})
	// Fill three distinct chunks in three separate scans: attr 0 rows
	// 0-15, attr 1 rows 0-15, attr 2. (Within one scan chunks are pinned
	// and recording would stop instead of evicting.)
	for a := 0; a < 3; a++ {
		m.BeginScan()
		for r := 0; r < 16; r++ {
			m.Record(r, a, uint32(a*100+r))
		}
	}
	met := m.Metrics()
	if met.Evictions == 0 {
		t.Fatal("expected evictions under budget pressure")
	}
	if m.MemoryBytes() > 2*(16*4+64) {
		t.Errorf("memory %d exceeds budget", m.MemoryBytes())
	}
	// attr 0 chunk (least recently used) must be gone; attr 2 present.
	if _, ok := m.Lookup(0, 0); ok {
		t.Error("LRU chunk should have been evicted")
	}
	if rel, ok := m.Lookup(5, 2); !ok || rel != 205 {
		t.Error("most recent chunk must survive")
	}
}

func TestBudgetTooSmallForOneChunk(t *testing.T) {
	m := New(4, Options{ChunkRows: 1024, Budget: 10})
	m.Record(0, 0, 1)
	if m.Metrics().Pointers != 0 {
		t.Error("budget below one chunk must drop records silently")
	}
	if _, ok := m.Lookup(0, 0); ok {
		t.Error("nothing should be stored")
	}
}

func TestLRUTouchOnLookup(t *testing.T) {
	m := New(8, Options{ChunkRows: 16, Budget: 2 * (16*4 + 64)})
	m.BeginScan()
	for r := 0; r < 16; r++ {
		m.Record(r, 0, uint32(r))
	}
	m.BeginScan()
	for r := 0; r < 16; r++ {
		m.Record(r, 1, uint32(r))
	}
	// Touch attr 0 so attr 1 becomes the LRU victim.
	m.BeginScan()
	if _, ok := m.Lookup(3, 0); !ok {
		t.Fatal("attr0 should be present")
	}
	for r := 0; r < 16; r++ {
		m.Record(r, 2, uint32(r))
	}
	if _, ok := m.Lookup(3, 0); !ok {
		t.Error("recently touched chunk evicted")
	}
	if _, ok := m.Lookup(3, 1); ok {
		t.Error("LRU chunk should be evicted")
	}
}

func TestScanPinningPreventsSelfEviction(t *testing.T) {
	// Budget for one chunk: a single scan recording two attributes must
	// keep the first chunk (pinned) and drop the second recording rather
	// than churn.
	m := New(4, Options{ChunkRows: 16, Budget: 1 * (16*4 + 64)})
	m.BeginScan()
	for r := 0; r < 16; r++ {
		m.Record(r, 0, uint32(r))
	}
	for r := 0; r < 16; r++ {
		m.Record(r, 1, uint32(100+r))
	}
	if _, ok := m.Lookup(3, 0); !ok {
		t.Error("chunk touched by the current scan must not be evicted")
	}
	if _, ok := m.Lookup(3, 1); ok {
		t.Error("second attribute should not have been recorded (no room)")
	}
	if m.Metrics().Evictions != 0 {
		t.Errorf("evictions = %d, want 0 within one scan", m.Metrics().Evictions)
	}
	// The next scan may evict the now-unpinned chunk.
	m.BeginScan()
	for r := 0; r < 16; r++ {
		m.Record(r, 1, uint32(100+r))
	}
	if _, ok := m.Lookup(3, 1); !ok {
		t.Error("new scan should be able to claim the budget")
	}
}

func TestDrop(t *testing.T) {
	m := New(4, Options{ChunkRows: 8})
	m.RecordTupleStart(0, 0)
	m.Record(0, 1, 3)
	m.Drop()
	if _, ok := m.Lookup(0, 1); ok {
		t.Error("Drop must clear attr positions")
	}
	if m.NumTuples() != 0 {
		t.Error("Drop must clear tuple starts")
	}
	if m.MemoryBytes() != 0 || m.Metrics().Pointers != 0 {
		t.Error("accounting not reset")
	}
	// Map must remain usable after Drop.
	m.RecordTupleStart(0, 5)
	m.Record(0, 1, 9)
	if rel, ok := m.Lookup(0, 1); !ok || rel != 9 {
		t.Error("map unusable after Drop")
	}
	if off, ok := m.TupleStart(0); !ok || off != 5 {
		t.Errorf("tuple start after Drop = %d,%v, want 5,true", off, ok)
	}
}

func TestIndexedAttrs(t *testing.T) {
	m := New(10, Options{})
	m.Record(0, 7, 1)
	m.Record(0, 2, 1)
	got := m.IndexedAttrs()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Errorf("IndexedAttrs = %v", got)
	}
}

// Property: against a brute-force shadow map, Lookup agrees after a random
// mix of records (no budget).
func TestLookupMatchesShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New(13, Options{ChunkRows: 32})
	shadow := map[[2]int]uint32{}
	for i := 0; i < 5000; i++ {
		row, attr := rng.Intn(300), rng.Intn(13)
		rel := uint32(rng.Intn(1 << 20))
		m.Record(row, attr, rel)
		shadow[[2]int{row, attr}] = rel
	}
	for i := 0; i < 5000; i++ {
		row, attr := rng.Intn(300), rng.Intn(13)
		want, wantOK := shadow[[2]int{row, attr}]
		got, ok := m.Lookup(row, attr)
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
	budget := int64(3 * (32*4 + 64))
	m := New(6, Options{ChunkRows: 32, Budget: budget})
	for i := 0; i < 20000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			m.Record(rng.Intn(500), rng.Intn(6), uint32(rng.Intn(1000)))
		case 2:
			m.Lookup(rng.Intn(500), rng.Intn(6))
		}
		if m.MemoryBytes() > budget {
			t.Fatalf("memory %d exceeds budget %d", m.MemoryBytes(), budget)
		}
		if m.Metrics().Pointers < 0 {
			t.Fatal("negative pointer count")
		}
	}
}

func TestStringer(t *testing.T) {
	m := New(3, Options{})
	if s := m.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestCursorMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(6, Options{ChunkRows: 32})
	m.BeginScan()
	// Record through cursors in mostly-sequential order, verify via Map.
	cursors := make([]*Cursor, 6)
	for a := range cursors {
		cursors[a] = m.Cursor(a)
	}
	shadow := map[[2]int]uint32{}
	for row := 0; row < 500; row++ {
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
		if got, ok := m.Lookup(key[0], key[1]); !ok || got != want {
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
	m := New(4, Options{ChunkRows: 16, Budget: 2 * (16*4 + 64)})
	m.BeginScan()
	cu := m.Cursor(0)
	for r := 0; r < 16; r++ {
		cu.Record(r, uint32(r+1))
	}
	// Next scans evict attr 0 by filling other attributes.
	for a := 1; a < 3; a++ {
		m.BeginScan()
		for r := 0; r < 16; r++ {
			m.Record(r, a, uint32(a*100+r))
		}
	}
	for r := 0; r < 16; r++ {
		if got, ok := cu.Get(r); ok && got != uint32(r+1) {
			t.Fatalf("stale cursor returned wrong value %d for row %d", got, r)
		}
	}
}

func TestNearestFastRejectAfterEviction(t *testing.T) {
	m := New(4, Options{ChunkRows: 16, Budget: 1 * (16*4 + 64)})
	m.BeginScan()
	for r := 0; r < 16; r++ {
		m.Record(r, 0, uint32(r))
	}
	// Rows in untouched ranges must reject in O(1) (can't observe time,
	// but must miss).
	if _, _, ok := m.Nearest(100, 2); ok {
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

func BenchmarkMapLookup(b *testing.B) {
	m := New(1, Options{})
	m.BeginScan()
	for i := 0; i < 1<<16; i++ {
		m.Record(i, 0, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(i&(1<<16-1), 0)
	}
}

func TestAbsorbShard(t *testing.T) {
	// Main map covers rows 0-4 of 3 attributes; two shards cover the rest,
	// as partition workers would build them with local row numbers.
	m := New(3, Options{ChunkRows: 4})
	for r := 0; r < 5; r++ {
		m.RecordTupleStart(r, int64(r*10))
		for a := 0; a < 3; a++ {
			m.Record(r, a, uint32(a*2))
		}
	}
	sh1 := New(3, Options{ChunkRows: 4})
	for r := 0; r < 3; r++ {
		sh1.RecordTupleStart(r, int64(50+r*10))
		sh1.Record(r, 1, uint32(100+r))
	}
	sh2 := New(3, Options{ChunkRows: 4})
	sh2.RecordTupleStart(0, 80)
	sh2.Record(0, 2, 7)

	m.AbsorbShard(sh1, 5)
	m.AbsorbShard(sh2, 8)

	if m.NumTuples() != 9 {
		t.Fatalf("tuples = %d", m.NumTuples())
	}
	for r := 0; r < 9; r++ {
		off, ok := m.TupleStart(r)
		if !ok || off != int64(r*10) {
			t.Errorf("tuple %d start = %d,%v", r, off, ok)
		}
	}
	for r := 5; r < 8; r++ {
		if rel, ok := m.Lookup(r, 1); !ok || rel != uint32(100+r-5) {
			t.Errorf("row %d attr 1 = %d,%v", r, rel, ok)
		}
		if _, ok := m.Lookup(r, 0); ok {
			t.Errorf("row %d attr 0 should be absent", r)
		}
	}
	if rel, ok := m.Lookup(8, 2); !ok || rel != 7 {
		t.Errorf("row 8 attr 2 = %d,%v", rel, ok)
	}
	// Pre-existing rows are untouched.
	if rel, ok := m.Lookup(2, 2); !ok || rel != 4 {
		t.Errorf("row 2 attr 2 = %d,%v", rel, ok)
	}
	// Pointer accounting covers absorbed entries.
	want := int64(5*3 + 3 + 1)
	if got := m.Metrics().Pointers; got != want {
		t.Errorf("pointers = %d, want %d", got, want)
	}
	// Nil shard is a no-op.
	m.AbsorbShard(nil, 9)
	if m.NumTuples() != 9 {
		t.Error("nil shard changed the map")
	}
}

func TestAbsorbShardRespectsBudget(t *testing.T) {
	// Destination budget fits exactly one chunk; absorbing two attributes
	// keeps the map within budget instead of overflowing.
	m := New(2, Options{ChunkRows: 8, Budget: int64(8)*4 + 64})
	sh := New(2, Options{ChunkRows: 8})
	for r := 0; r < 8; r++ {
		sh.RecordTupleStart(r, int64(r))
		sh.Record(r, 0, 1)
		sh.Record(r, 1, 2)
	}
	m.AbsorbShard(sh, 0)
	if m.MemoryBytes() > int64(8)*4+64 {
		t.Errorf("budget exceeded: %d", m.MemoryBytes())
	}
	if m.NumTuples() != 8 {
		t.Errorf("tuple starts must always merge: %d", m.NumTuples())
	}
}
