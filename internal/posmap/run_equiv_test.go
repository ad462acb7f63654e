package posmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The tests below build the same map twice — once through the run-wise
// producers (Writer.RecordRow, Cursor.RecordRun, AbsorbShard) and once
// through the per-pointer reference (Cursor.Record / Map.Record, one call
// per position in the same order) — and require the two to be
// indistinguishable: positions, counters, byte accounting, which chunks a
// budget admitted or evicted, and the LRU order the next eviction walks.

// snapshot is everything observable (and, for the LRU, about to become
// observable) about a map.
type snapshot struct {
	metrics Metrics
	bytes   int64
	starts  []int64
	lru     []chunkKey // front (most recent) first
	chunks  map[chunkKey][]uint32
	counts  map[chunkKey]int
	attrsAt [][]int32
	indexed []int
}

func snap(m *Map) snapshot {
	s := snapshot{
		metrics: m.Metrics(),
		bytes:   m.MemoryBytes(),
		starts:  slices.Clone(m.starts),
		chunks:  map[chunkKey][]uint32{},
		counts:  map[chunkKey]int{},
		indexed: m.IndexedAttrs(),
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		s.lru = append(s.lru, el.Value.(*chunk).key)
	}
	for a := range m.attrs {
		live := 0
		for idx, c := range m.attrs[a].chunks {
			if c == nil {
				continue
			}
			live++
			if c.key != (chunkKey{a, idx}) {
				panic(fmt.Sprintf("chunk keyed %v stored at (%d,%d)", c.key, a, idx))
			}
			s.chunks[c.key] = slices.Clone(c.offs)
			s.counts[c.key] = c.n
		}
		if live != m.attrs[a].live {
			panic(fmt.Sprintf("attr %d: live=%d but %d chunks in memory", a, m.attrs[a].live, live))
		}
	}
	for _, l := range m.attrsAt {
		s.attrsAt = append(s.attrsAt, slices.Clone(l))
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
	if !slices.Equal(g.lru, w.lru) {
		t.Fatalf("%s: LRU order %v, reference %v", what, g.lru, w.lru)
	}
	if !slices.Equal(g.indexed, w.indexed) {
		t.Fatalf("%s: IndexedAttrs %v, reference %v", what, g.indexed, w.indexed)
	}
	if len(g.chunks) != len(w.chunks) {
		t.Fatalf("%s: %d chunks, reference %d", what, len(g.chunks), len(w.chunks))
	}
	for k, offs := range w.chunks {
		if !slices.Equal(g.chunks[k], offs) {
			t.Fatalf("%s: chunk %v contents differ", what, k)
		}
		if g.counts[k] != w.counts[k] {
			t.Fatalf("%s: chunk %v n=%d, reference %d", what, k, g.counts[k], w.counts[k])
		}
	}
	if len(g.attrsAt) != len(w.attrsAt) {
		t.Fatalf("%s: attrsAt covers %d ranges, reference %d", what, len(g.attrsAt), len(w.attrsAt))
	}
	for i := range w.attrsAt {
		if !slices.Equal(g.attrsAt[i], w.attrsAt[i]) {
			t.Fatalf("%s: attrsAt[%d] = %v, reference %v", what, i, g.attrsAt[i], w.attrsAt[i])
		}
	}
}

// requireSameLookups probes every (row, attr) through the public API on
// both maps (Lookup has LRU and counter side effects, applied equally).
func requireSameLookups(t *testing.T, what string, got, want *Map, rows int) {
	t.Helper()
	for a := 0; a < want.numAttrs; a++ {
		for r := 0; r < rows; r++ {
			gr, gok := got.Lookup(r, a)
			wr, wok := want.Lookup(r, a)
			if gr != wr || gok != wok {
				t.Fatalf("%s: Lookup(%d,%d) = %d,%v, reference %d,%v", what, r, a, gr, gok, wr, wok)
			}
		}
	}
	requireSame(t, what+" after lookups", got, want)
}

var equivChunkRows = []int{1, 7, 1024}

// chunkBudget is a budget of n chunks for the given height.
func chunkBudget(chunkRows, n int) int64 { return int64(n) * (int64(chunkRows)*4 + 64) }

// TestWriterMatchesCursorRecord replays scan-shaped recording — per tuple a
// few forward extensions of the tokenized prefix, short rows, tuples that
// stop early, reads through cursors in between — over several scans whose
// attribute ranges shift, under no budget and under one small enough to
// refuse chunks in the middle of a scan and evict across scans.
func TestWriterMatchesCursorRecord(t *testing.T) {
	const attrs = 12
	for _, cr := range equivChunkRows {
		rows := 3*cr + cr/2 + 5
		if cr == 1 {
			rows = 40
		}
		for _, budgetChunks := range []int{0, 9, 30} {
			t.Run(fmt.Sprintf("chunkRows=%d/budget=%d", cr, budgetChunks), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cr*100 + budgetChunks)))
				opts := Options{ChunkRows: cr, Budget: chunkBudget(cr, budgetChunks)}
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
			})
		}
	}
}

// TestWriterSurvivesOutsideEviction: a chunk the writer resolved leaves
// memory behind its back (Drop); later rows must land in a fresh chunk,
// not in the detached one.
func TestWriterSurvivesOutsideEviction(t *testing.T) {
	m := New(2, Options{ChunkRows: 8})
	m.BeginScan()
	w := m.Writer()
	w.RecordRow(0, 0, []uint32{1, 2})
	m.Drop()
	w.RecordRow(1, 0, []uint32{3, 4})
	if _, ok := m.Lookup(0, 0); ok {
		t.Error("dropped position still visible")
	}
	if rel, ok := m.Lookup(1, 1); !ok || rel != 4 {
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
	w.RecordRow(0, 1, []uint32{noPosition, 5, 6, 7}) // hole; clipped at numAttrs
	if p := m.Metrics().Pointers; p != 1 {
		t.Errorf("Pointers = %d, want 1", p)
	}
	if rel, ok := m.Lookup(0, 2); !ok || rel != 5 {
		t.Errorf("Lookup(0,2) = %d,%v", rel, ok)
	}
}

// randomShard builds a map the way a partition worker (or an abandoned one)
// leaves it: rows [0, n) have starts, some attributes are dense, some
// sparse, some stop after a prefix of the rows (LIMIT), short rows miss
// their tail attributes.
func randomShard(rng *rand.Rand, attrs, chunkRows, n int, startBase int64) *Map {
	sh := New(attrs, Options{ChunkRows: chunkRows})
	for r := 0; r < n; r++ {
		sh.RecordTupleStart(r, startBase+int64(r)*10)
	}
	for a := 0; a < attrs; a++ {
		var density int
		switch rng.Intn(4) {
		case 0:
			continue // attribute never touched
		case 1:
			density = 100
		case 2:
			density = 50
		default:
			density = 3
		}
		upto := n
		if rng.Intn(3) == 0 && n > 0 {
			upto = rng.Intn(n + 1)
		}
		cu := sh.Cursor(a)
		for r := 0; r < upto; r++ {
			if rng.Intn(100) < density {
				cu.Record(r, uint32(a*1000+r))
			}
		}
	}
	return sh
}

// absorbReference is the per-pointer merge AbsorbShard replaced.
func absorbReference(m, sh *Map, rowOffset int) {
	for i, off := range sh.starts {
		m.RecordTupleStart(rowOffset+i, off)
	}
	for a := range sh.attrs {
		if sh.attrs[a].live == 0 {
			continue
		}
		cu := m.Cursor(a)
		sh.ForEachPointer(a, func(row int, rel uint32) { cu.Record(rowOffset+row, rel) })
	}
}

func TestAbsorbShardMatchesPerPointer(t *testing.T) {
	const attrs = 6
	for _, cr := range equivChunkRows {
		for _, budgetChunks := range []int{0, 7} {
			for _, aligned := range []bool{true, false} {
				name := fmt.Sprintf("chunkRows=%d/budget=%d/aligned=%v", cr, budgetChunks, aligned)
				t.Run(name, func(t *testing.T) {
					for seed := int64(0); seed < 20; seed++ {
						rng := rand.New(rand.NewSource(seed*31 + int64(cr)))
						opts := Options{ChunkRows: cr, Budget: chunkBudget(cr, budgetChunks)}
						got, want := New(attrs, opts), New(attrs, opts)
						// Some seeds start from a map that already holds
						// positions, so merged runs meet occupied chunks.
						if seed%3 == 0 {
							for _, m := range []*Map{got, want} {
								prng := rand.New(rand.NewSource(seed))
								m.BeginScan()
								for i := 0; i < 4*cr; i++ {
									m.Record(prng.Intn(3*cr), prng.Intn(attrs), uint32(prng.Intn(999)))
								}
							}
						}
						got.BeginScan()
						want.BeginScan()
						total := 0
						for part := 0; part < 3; part++ {
							n := cr + rng.Intn(2*cr+1)
							if aligned {
								n = cr * (1 + rng.Intn(2))
							}
							shardRows := cr
							if seed%5 == 4 && cr > 1 {
								shardRows = cr - 1 // a shard built with another chunk height
							}
							a := randomShard(rand.New(rand.NewSource(seed+int64(part))), attrs, shardRows, n, int64(total)*10)
							b := randomShard(rand.New(rand.NewSource(seed+int64(part))), attrs, shardRows, n, int64(total)*10)
							got.AbsorbShard(a, total)
							absorbReference(want, b, total)
							requireSame(t, fmt.Sprintf("seed %d part %d", seed, part), got, want)
							total += n
						}
						requireSameLookups(t, fmt.Sprintf("seed %d", seed), got, want, total)
					}
				})
			}
		}
	}
}

// TestAbsorbShardAdoptsAlignedChunks pins the O(1) path: at a chunk-aligned
// offset into free chunk slots, the shard's chunk objects themselves become
// the map's.
func TestAbsorbShardAdoptsAlignedChunks(t *testing.T) {
	m := New(2, Options{ChunkRows: 4})
	sh := New(2, Options{ChunkRows: 4})
	for r := 0; r < 6; r++ {
		sh.Record(r, 1, uint32(r))
	}
	first := sh.attrs[1].chunks[0]
	m.AbsorbShard(sh, 8)
	if m.attrs[1].at(2) != first {
		t.Error("aligned shard chunk was copied, not handed over")
	}
	if rel, ok := m.Lookup(13, 1); !ok || rel != 5 {
		t.Errorf("Lookup(13,1) = %d,%v", rel, ok)
	}
}

// TestRecordRunMatchesMapRecord is the sidecar restore's shape: a fresh map,
// per attribute ascending runs of consecutive rows; the reference is the
// Map.Record loop restore used to run.
func TestRecordRunMatchesMapRecord(t *testing.T) {
	const attrs = 5
	for _, cr := range equivChunkRows {
		for _, budgetChunks := range []int{0, 6} {
			t.Run(fmt.Sprintf("chunkRows=%d/budget=%d", cr, budgetChunks), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cr + budgetChunks)))
				opts := Options{ChunkRows: cr, Budget: chunkBudget(cr, budgetChunks)}
				got, want := New(attrs, opts), New(attrs, opts)
				rows := 2*cr + cr/3 + 9
				for a := 0; a < attrs; a++ {
					cu := got.Cursor(a)
					for r := 0; r < rows; {
						n := 1 + rng.Intn(cr+3)
						n = min(n, rows-r)
						rels := make([]uint32, n)
						for i := range rels {
							rels[i] = uint32(a*100000 + r + i)
							if rng.Intn(50) == 0 {
								rels[i] = noPosition // never written by a checkpoint; must be skipped
							}
						}
						cu.RecordRun(r, rels)
						for i, rel := range rels {
							want.Record(r+i, a, rel)
						}
						r += n + rng.Intn(3) // sometimes a gap between runs
					}
				}
				requireSame(t, "restore", got, want)
				requireSameLookups(t, "restore", got, want, rows)
			})
		}
	}
}

func TestForEachPointerAscending(t *testing.T) {
	m := New(1, Options{ChunkRows: 4})
	for _, r := range []int{17, 3, 9, 0, 12, 4} {
		m.Record(r, 0, uint32(r))
	}
	var rows []int
	m.ForEachPointer(0, func(row int, rel uint32) {
		if rel != uint32(row) {
			t.Errorf("row %d rel %d", row, rel)
		}
		rows = append(rows, row)
	})
	if !slices.IsSorted(rows) || len(rows) != 6 {
		t.Errorf("ForEachPointer visited %v, want 6 rows ascending", rows)
	}
}

// BenchmarkRecordRun is BenchmarkCursorRecord's workload through the scan
// writer: every tuple records one run of 20 attribute positions.
func BenchmarkRecordRun(b *testing.B) {
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

// BenchmarkAbsorbShard merges a 16-chunk × 8-attribute shard (131072
// positions) into an empty map.
func BenchmarkAbsorbShard(b *testing.B) {
	const attrs, rows = 8, 16 * DefaultChunkRows
	for _, bc := range []struct {
		name   string
		offset int
	}{{"aligned", 4 * DefaultChunkRows}, {"unaligned", 4*DefaultChunkRows + 100}} {
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
				m.AbsorbShard(sh, bc.offset)
			}
		})
	}
}
