package posmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nodb/internal/chunkdir"
)

// TestWriterMatchesCursorRecord builds the same map twice — once through
// the scan writer (Writer.RecordRow) and once through the per-pointer
// reference (Cursor.Record, one call per position in the same order) — and
// requires the two to be indistinguishable: positions, counters, byte
// accounting, and which chunks a budget admitted or evicted.

// equivAttrs is the width of the maps the equivalence tests compare.
const equivAttrs = 12

// snapshot is everything observable about a map.
type snapshot struct {
	metrics Metrics
	bytes   int64
	starts  []int64
	chunks  map[[2]int][]uint32 // (attr, chunk) -> offsets
}

func snap(m *Map) snapshot {
	s := snapshot{metrics: m.Metrics(), bytes: m.MemoryBytes(), chunks: map[[2]int][]uint32{}}
	s.starts = slices.Clone(m.d.Starts())
	for a := 0; a < equivAttrs; a++ {
		for idx, sl := range m.d.Slots(a) {
			if sl != nil && sl.Offs != nil {
				s.chunks[[2]int{a, idx}] = slices.Clone(sl.Offs)
			}
		}
	}
	return s
}

func requireSame(t *testing.T, what string, got, want *Map) {
	t.Helper()
	g, w := snap(got), snap(want)
	if g.metrics != w.metrics {
		t.Fatalf("%s: metrics %+v, reference %+v", what, g.metrics, w.metrics)
	}
	if g.bytes != w.bytes {
		t.Fatalf("%s: MemoryBytes %d, reference %d", what, g.bytes, w.bytes)
	}
	if !slices.Equal(g.starts, w.starts) {
		t.Fatalf("%s: tuple starts differ (%d vs %d)", what, len(g.starts), len(w.starts))
	}
	if len(g.chunks) != len(w.chunks) {
		t.Fatalf("%s: %d chunks, reference %d", what, len(g.chunks), len(w.chunks))
	}
	for k, offs := range w.chunks {
		if !slices.Equal(g.chunks[k], offs) {
			t.Fatalf("%s: chunk %v contents differ", what, k)
		}
	}
}

// requireSameLookups probes every (row, attr) on both maps (a hit touches
// the LRU, applied equally).
func requireSameLookups(t *testing.T, what string, got, want *Map, rows int) {
	t.Helper()
	for a := 0; a < equivAttrs; a++ {
		for r := 0; r < rows; r++ {
			gr, gok := lookup(got, r, a)
			wr, wok := lookup(want, r, a)
			if gr != wr || gok != wok {
				t.Fatalf("%s: lookup(%d,%d) = %d,%v, reference %d,%v", what, r, a, gr, gok, wr, wok)
			}
		}
	}
	requireSame(t, what+" after lookups", got, want)
}

// TestWriterMatchesCursorRecord replays scan-shaped recording — per tuple a
// few forward extensions of the tokenized prefix, short rows, tuples that
// stop early, reads through cursors in between — over several scans whose
// attribute ranges shift, under no budget and under one small enough to
// refuse chunks in the middle of a scan and evict across scans.
//
// Each case is named for a chunk height h it was first written for, when the
// height was an option. The height is now fixed at chunkRows, so a case keeps
// its table's length in chunks of height h: 40 chunks at h=1, a little over
// four at h=7, three and a half at h=1024.
func TestWriterMatchesCursorRecord(t *testing.T) {
	for _, h := range []int{1, 7, 1024} {
		rows := (3*h + h/2 + 5) * chunkRows / h
		if h == 1 {
			rows = 40 * chunkRows
		}
		for _, budgetChunks := range []int{0, 9, 30} {
			t.Run(fmt.Sprintf("chunkRows=%d/budget=%d", h, budgetChunks), func(t *testing.T) {
				testWriterMatchesCursorRecord(t, rows, budgetChunks, int64(h*100+budgetChunks))
			})
		}
	}
}

func testWriterMatchesCursorRecord(t *testing.T, rows, budgetChunks int, seed int64) {
	const attrs = equivAttrs
	rng := rand.New(rand.NewSource(seed))
	opts := Options{Budget: int64(budgetChunks) * chunkBytes}
	got, want := New(attrs, opts), New(attrs, opts)
	for scan := 0; scan < 5; scan++ {
		got.BeginScan()
		want.BeginScan()
		w := got.Writer()
		gotCu := make([]*Cursor, attrs)
		refCu := make([]*Cursor, attrs)
		for a := range refCu {
			gotCu[a], refCu[a] = got.Cursor(a), want.Cursor(a)
		}
		// Later scans start recording at attribute lo, as forward
		// navigation from a known position does: the chunks
		// below lo stay unpinned and become eviction victims.
		lo := 0
		if scan > 0 {
			lo = rng.Intn(attrs / 2)
		}
		for row := 0; row < rows; row++ {
			got.RecordTupleStart(row, int64(row*100))
			want.RecordTupleStart(row, int64(row*100))
			width := attrs
			if rng.Intn(10) == 0 {
				width = 1 + rng.Intn(attrs) // short row
			}
			known := lo // attributes below are located already
			for step := 0; step < 3 && known < width; step++ {
				upTo := known + rng.Intn(attrs-known)
				// A scan reads the requested column through its
				// cursor before tokenizing towards it.
				gr, gok := gotCu[upTo].Get(row)
				wr, wok := refCu[upTo].Get(row)
				if gr != wr || gok != wok {
					t.Fatalf("scan %d row %d: Get(%d) = %d,%v, reference %d,%v", scan, row, upTo, gr, gok, wr, wok)
				}
				end := min(upTo+1, width)
				if end <= known {
					continue
				}
				rels := make([]uint32, end-known)
				for i := range rels {
					rels[i] = uint32((known+i)*7 + row%5 + scan)
				}
				w.RecordRow(row, known, rels)
				for i, rel := range rels {
					refCu[known+i].Record(row, rel)
				}
				known = end
				if rng.Intn(2) == 0 {
					break // tuple did not qualify: no further columns
				}
			}
		}
		requireSame(t, fmt.Sprintf("after scan %d", scan), got, want)
	}
	requireSameLookups(t, "final", got, want, rows)
	if budgetChunks == 9 && got.Metrics().Evictions == 0 {
		t.Error("budget never forced an eviction: the test lost its teeth")
	}
}

// TestWriterSurvivesOutsideEviction: a chunk the writer resolved leaves
// memory behind its back (Drop); later rows must land in a fresh chunk,
// not in the detached one.
func TestWriterSurvivesOutsideEviction(t *testing.T) {
	m := New(2, Options{})
	m.BeginScan()
	w := m.Writer()
	w.RecordRow(0, 0, []uint32{1, 2})
	m.d.Drop()
	w.RecordRow(1, 0, []uint32{3, 4})
	if _, ok := lookup(m, 0, 0); ok {
		t.Error("dropped position still visible")
	}
	if rel, ok := lookup(m, 1, 1); !ok || rel != 4 {
		t.Errorf("position recorded after the drop = %d,%v, want 4,true", rel, ok)
	}
	if p := m.Metrics().Pointers; p != 2 {
		t.Errorf("Pointers = %d, want 2", p)
	}
}

func TestWriterBoundsIgnored(t *testing.T) {
	m := New(3, Options{})
	w := m.Writer()
	w.RecordRow(-1, 0, []uint32{1})
	w.RecordRow(0, -1, []uint32{1})
	w.RecordRow(0, 3, []uint32{1})
	w.RecordRow(0, 1, []uint32{chunkdir.NoPosition, 5, 6, 7}) // hole; clipped at numAttrs
	if p := m.Metrics().Pointers; p != 1 {
		t.Errorf("Pointers = %d, want 1", p)
	}
	if rel, ok := lookup(m, 0, 2); !ok || rel != 5 {
		t.Errorf("Lookup(0,2) = %d,%v", rel, ok)
	}
}

// TestAbsorbAdoptsAlignedChunks pins the O(1) path: at a chunk-aligned
// offset into free chunk slots, the shard's offset arrays themselves become
// the map's.
func TestAbsorbAdoptsAlignedChunks(t *testing.T) {
	m := New(2, Options{})
	sh := New(2, Options{})
	for r := 0; r < chunkRows+500; r++ {
		record(sh, r, 1, uint32(r))
	}
	first := &sh.d.Slots(1)[0].Offs[0]
	m.d.Absorb(sh.d, 2*chunkRows)
	if &m.d.Slots(1)[2].Offs[0] != first {
		t.Error("aligned shard chunk was copied, not handed over")
	}
	if rel, ok := lookup(m, 3*chunkRows+13, 1); !ok || rel != chunkRows+13 {
		t.Errorf("lookup = %d,%v", rel, ok)
	}
}

// BenchmarkWriterRecordRow is BenchmarkCursorRecord's workload through the
// scan writer: every tuple records one run of 20 attribute positions.
func BenchmarkWriterRecordRow(b *testing.B) {
	const run = 20
	m := New(run, Options{})
	m.BeginScan()
	w := m.Writer()
	rels := make([]uint32, run)
	for i := range rels {
		rels[i] = uint32(i * 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += run {
		w.RecordRow(i/run, 0, rels)
	}
}

// BenchmarkAbsorb merges a 16-chunk × 8-attribute shard (131072
// positions) into an empty map.
func BenchmarkAbsorb(b *testing.B) {
	const attrs, rows = 8, 16 * chunkRows
	for _, bc := range []struct {
		name   string
		offset int
	}{{"aligned", 4 * chunkRows}, {"unaligned", 4*chunkRows + 100}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sh := New(attrs, Options{})
				w := sh.Writer()
				rels := make([]uint32, attrs)
				for r := 0; r < rows; r++ {
					w.RecordRow(r, 0, rels)
				}
				m := New(attrs, Options{})
				b.StartTimer()
				m.d.Absorb(sh.d, bc.offset)
			}
		})
	}
}
