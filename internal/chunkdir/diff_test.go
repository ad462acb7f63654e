package chunkdir_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"nodb/internal/chunkdir"
	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/schema"
	"nodb/internal/sidecar"
	"nodb/internal/stats"
)

// TestDirectoryEquivalence runs seeded random schedules against a
// table's directory and against ref, a per-value model of the two policies
// (map: LRU over (attribute, chunk) with scan pinning; cache: LRU over
// columns with the conversion-cost victim window) and of today's byte
// accounting, and of each column synopsis as the list of rows it covers.
// Steps: cursor and writer recordings, puts with NULLs and holes, synopsis
// feeds, Nearest probes, absorbs of random shards at aligned and unaligned
// offsets into empty and partly filled directories, Drop, and a sidecar
// checkpoint → reload round trip. After every step the map's pointers, the
// cache's values, MemoryBytes, Bytes, Metrics().Pointers and evictions
// must equal the model's, every synopsis must fold to the statistics of
// one synopsis fed its rows in order, and the directory must pass Verify.
func TestDirectoryEquivalence(t *testing.T) {
	for _, b := range []struct{ pm, cache int64 }{{0, 0}, {5 * mapBytes, 0}, {0, 30_000}, {7 * mapBytes, 24_000}} {
		t.Run(fmt.Sprintf("pm=%d/cache=%d", b.pm, b.cache), func(t *testing.T) {
			evicted := false
			for seed := int64(1); seed <= 4; seed++ {
				h := newHarness(t, b.pm, b.cache)
				rng := rand.New(rand.NewSource(seed*1000 + b.pm + b.cache))
				h.srng = rand.New(rand.NewSource(seed))
				for step := 0; step < 50; step++ {
					what := h.step(rng)
					h.check(fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
				}
				evicted = evicted || h.ref.evictions > 0 || h.ref.cacheEvictions > 0
			}
			if (b.pm > 0 || b.cache > 0) && !evicted {
				t.Error("the budgets never forced an eviction: the test lost its teeth")
			}
		})
	}
}

const (
	attrs    = 6
	maxRows  = 3*chunkdir.ChunkRows + 600
	mapBytes = chunkdir.ChunkRows*4 + 64
)

var colTypes = []datum.Type{datum.Int, datum.Float, datum.Text, datum.Date, datum.Bool, datum.Int}

// harness pairs a table state with the model.
type harness struct {
	t   *testing.T
	st  *format.State
	ref *ref
	tbl *schema.Table
	env format.Env
	mgr *sidecar.Manager

	// srng draws the synopsis feeds, apart from the schedule's rng, so
	// the feeds leave the map and cache schedules as they were.
	srng *rand.Rand
}

func newHarness(t *testing.T, pm, cache int64) *harness {
	dir := t.TempDir()
	raw := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(raw, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var cols []schema.Column
	for i, typ := range colTypes {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Type: typ})
	}
	tbl := &schema.Table{Name: "t", Columns: cols, Path: raw}
	h := &harness{t: t, tbl: tbl, mgr: sidecar.New(sidecar.Config{Dir: dir})}
	t.Cleanup(func() { _ = h.mgr.Close() })
	h.env = format.Env{PosMap: true, AttrPointers: true, Cache: true, Statistics: true, PMBudget: pm, CacheBudget: cache}
	h.st = format.NewState(tbl, h.env)
	h.ref = newRef(pm, cache)
	return h
}

func value(typ datum.Type, rng *rand.Rand) datum.Datum {
	if rng.Intn(8) == 0 {
		return datum.NewNull(typ)
	}
	switch typ {
	case datum.Float:
		return datum.NewFloat(rng.Float64())
	case datum.Text:
		return datum.NewText(fmt.Sprintf("v%0*d", rng.Intn(10), rng.Intn(1000)))
	case datum.Bool:
		return datum.NewBool(rng.Intn(2) == 0)
	case datum.Date:
		return datum.NewDate(int64(rng.Intn(20000)))
	}
	return datum.NewInt(rng.Int63n(1 << 40))
}

// fill applies a random recording schedule to d and m alike: tuple
// starts, cursor and writer recordings, puts.
func fill(t *testing.T, rng *rand.Rand, d *chunkdir.Dir, m *ref, from, to int) {
	switch rng.Intn(3) {
	case 0: // cursor recordings over a few attributes
		d.BeginScan()
		m.beginScan()
		for k := rng.Intn(3) + 1; k > 0; k-- {
			a := rng.Intn(attrs)
			cu := d.Cursor(a)
			density := 1 + rng.Intn(100)
			for row := from; row < to; row++ {
				d.RecordTupleStart(row, int64(row)*100)
				m.recordStart(row, int64(row)*100)
				if rng.Intn(100) >= density {
					continue
				}
				got, gok := cu.Get(row)
				want, wok := m.get(row, a)
				if got != want || gok != wok {
					t.Fatalf("Cursor.Get(%d,%d) = %d,%v, reference %d,%v", row, a, got, gok, want, wok)
				}
				rel := uint32(rng.Intn(1 << 16))
				cu.Record(row, rel)
				m.record(row, a, rel)
			}
		}
	case 1: // a writer recording prefixes of tuples
		d.BeginScan()
		m.beginScan()
		w := d.Writer()
		lo := rng.Intn(attrs)
		for row := from; row < to; row++ {
			d.RecordTupleStart(row, int64(row)*100)
			m.recordStart(row, int64(row)*100)
			rels := make([]uint32, 1+rng.Intn(attrs-lo))
			for i := range rels {
				rels[i] = uint32(row%7 + i*10)
				if rng.Intn(20) == 0 {
					rels[i] = chunkdir.NoPosition
				}
			}
			w.RecordRow(row, lo, rels)
			for i, rel := range rels {
				m.record(row, lo+i, rel)
			}
		}
	default: // puts with NULLs and holes
		for k := rng.Intn(3) + 1; k > 0; k-- {
			col := rng.Intn(attrs)
			typ := colTypes[col]
			v := d.View(col, typ)
			mv := m.view(col, typ)
			if v.Valid() != (mv != nil) {
				t.Fatalf("View(%d) valid=%v, reference %v", col, v.Valid(), mv != nil)
			}
			density := 1 + rng.Intn(100)
			for row := from; row < to; row++ {
				if rng.Intn(100) >= density {
					continue
				}
				x := value(typ, rng)
				if got, want := v.Put(row, x), m.put(mv, row, x); got != want {
					t.Fatalf("Put(%d,%d) = %v, reference %v", col, row, got, want)
				}
			}
		}
	}
}

// feed gives a random run of one column's next rows to its synopsis in d
// and m, the row at local row r keyed by position (base+r)*100.
func feed(rng *rand.Rand, d *chunkdir.Dir, m *ref, base int) {
	col := rng.Intn(attrs)
	typ := colTypes[col]
	syn, rows := d.Feed(col, typ), m.syns[col]
	if rows == nil {
		rows = []synRow{}
	}
	for k := rng.Intn(2 * chunkdir.ChunkRows); k > 0; k-- {
		r := synRow{uint64(base+len(rows)) * 100, value(typ, rng)}
		syn.Add(r.pos, r.v)
		rows = append(rows, r)
	}
	m.syns[col] = rows
}

// span picks a random row range.
func span(rng *rand.Rand) (int, int) {
	from := rng.Intn(maxRows)
	return from, min(maxRows, from+1+rng.Intn(2*chunkdir.ChunkRows))
}

func (h *harness) step(rng *rand.Rand) string {
	d := h.st.Dir
	switch op := rng.Intn(10); {
	case op < 5:
		from, to := span(rng)
		fill(h.t, rng, d, h.ref, from, to)
		if h.srng.Intn(2) == 0 {
			feed(h.srng, d, h.ref, 0)
			return "record/put/feed"
		}
		return "record/put"
	case op < 7:
		// Absorb a shard at an aligned or unaligned offset. Its tuple
		// starts continue the table's when the offset equals their count.
		off := len(h.ref.starts)
		if rng.Intn(3) == 0 {
			off = rng.Intn(maxRows)
		} else if h.srng.Intn(2) == 0 { // where a synopsis's coverage ends, so the shard's merges
			off = len(h.ref.syns[h.srng.Intn(attrs)])
		}
		if rng.Intn(2) == 0 {
			off -= off % chunkdir.ChunkRows
		}
		n := 1 + rng.Intn(2*chunkdir.ChunkRows)
		sh, shRef := chunkdir.New(attrs, 0, 0), newRef(0, 0)
		for k := rng.Intn(3) + 1; k > 0; k-- {
			fill(h.t, rng, sh, shRef, 0, n)
			feed(h.srng, sh, shRef, off)
		}
		// A shard's tuple starts are absolute offsets.
		d.BeginScan()
		h.ref.beginScan()
		d.Absorb(sh, off)
		h.ref.absorb(shRef, off)
		return fmt.Sprintf("absorb at %d", off)
	case op < 8:
		for k := 0; k < 20; k++ {
			row, a := rng.Intn(maxRows), rng.Intn(attrs)
			ga, grel, gok := d.Nearest(row, a)
			wa, wrel, wok := h.ref.nearest(row, a)
			if ga != wa || grel != wrel || gok != wok {
				h.t.Fatalf("Nearest(%d,%d) = %d,%d,%v, reference %d,%d,%v", row, a, ga, grel, gok, wa, wrel, wok)
			}
		}
		return "nearest"
	case op < 9:
		if rng.Intn(3) == 0 {
			d.Drop()
			h.ref.drop()
			return "drop"
		}
		fallthrough
	default:
		h.roundTrip()
		return "sidecar round trip"
	}
}

// roundTrip checkpoints the state through the sidecar and reopens it from
// the file; the model installs its own content into a fresh model.
func (h *harness) roundTrip() {
	fp, err := format.TakeFingerprint(h.tbl.Path)
	if err != nil {
		h.t.Fatal(err)
	}
	h.st.FP = fp
	for col := 0; col < attrs; col++ { // publish: a checkpoint keeps published synopses
		if syn := h.st.Dir.Synopsis(col); syn != nil {
			h.st.St.Set(col, syn.Finalize())
		}
	}
	h.mgr.MarkDirty(h.st)
	if err := h.mgr.Flush(context.Background()); err != nil {
		h.t.Fatal(err)
	}
	env := h.env
	env.Sidecar = h.mgr
	h.st = format.NewState(h.tbl, env)
	old := h.ref
	h.ref = newRef(old.pmBudget, old.cacheBudget)
	old.clip()
	h.ref.absorb(old, 0)
}

// check compares everything observable.
func (h *harness) check(what string) {
	t, d, m := h.t, h.st.Dir, h.ref
	if err := d.Verify(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := d.MapMetrics(); got.Pointers != m.pointers || got.Evictions != m.evictions {
		t.Fatalf("%s: map metrics %+v, reference pointers=%d evictions=%d", what, got, m.pointers, m.evictions)
	}
	if d.MapBytes() != m.mapBytes() || d.CacheBytes() != m.cacheBytes {
		t.Fatalf("%s: bytes map=%d cache=%d, reference %d %d", what, d.MapBytes(), d.CacheBytes(), m.mapBytes(), m.cacheBytes)
	}
	if d.NumTuples() != len(m.starts) {
		t.Fatalf("%s: %d tuple starts, reference %d", what, d.NumTuples(), len(m.starts))
	}
	got := map[[2]int]uint32{}
	for a := 0; a < attrs; a++ {
		for idx, s := range d.Slots(a) {
			if s == nil || s.Offs == nil {
				continue
			}
			if m.chunks[[2]int{a, idx}] == nil {
				t.Fatalf("%s: map half (%d,%d) not in the reference", what, a, idx)
			}
			for r, rel := range s.Offs {
				if rel != chunkdir.NoPosition {
					got[[2]int{idx*chunkdir.ChunkRows + r, a}] = rel
				}
			}
		}
	}
	want := m.positions()
	if len(got) != len(want) {
		t.Fatalf("%s: %d positions, reference %d", what, len(got), len(want))
	}
	for k, rel := range want {
		if got[k] != rel {
			t.Fatalf("%s: position (row %d, attr %d) = %d, reference %d", what, k[0], k[1], got[k], rel)
		}
	}
	for col := 0; col < attrs; col++ {
		syn, rows := d.Synopsis(col), m.syns[col]
		if (syn == nil) != (rows == nil) {
			t.Fatalf("%s: column %d synopsis %v, reference %d rows", what, col, syn != nil, len(rows))
		}
		if syn == nil {
			continue
		}
		want := stats.NewSynopsis(colTypes[col])
		for _, r := range rows {
			want.Add(r.pos, r.v)
		}
		if got := syn.Finalize(); !reflect.DeepEqual(got, want.Finalize()) {
			t.Fatalf("%s: column %d synopsis folds to %+v, reference %+v", what, col, got, want.Finalize())
		}
	}
	cols := d.CachedColumns()
	if len(cols) != len(m.cols) {
		t.Fatalf("%s: cached columns %v, reference %d", what, cols, len(m.cols))
	}
	for _, col := range cols {
		e := m.cols[col]
		if e == nil {
			t.Fatalf("%s: column %d cached, not in the reference", what, col)
		}
		v := d.ReadView(col)
		for row := 0; row < maxRows+chunkdir.ChunkRows; row++ {
			g, gok := v.Get(row)
			w, wok := e.vals[row]
			if gok != wok || gok && (g.Null() != w.Null() || datum.Compare(g, w) != 0) {
				t.Fatalf("%s: column %d row %d = %v,%v, reference %v,%v", what, col, row, g, gok, w, wok)
			}
		}
	}
}

// ref is the per-value reference model.
type ref struct {
	pmBudget, cacheBudget int64

	starts    []int64
	scan      int64
	chunks    map[[2]int]*refChunk // (attr, chunk)
	order     [][2]int             // map LRU, most recent first
	pointers  int64
	evictions int64

	cols           map[int]*refCol
	corder         []*refCol // cache LRU, most recent first
	cacheBytes     int64
	cacheEvictions int

	syns map[int][]synRow // per column, the rows its synopsis covers (non-nil = has one)
}

// synRow is one row a synopsis covers: its position key and value.
type synRow struct {
	pos uint64
	v   datum.Datum
}

type refChunk struct {
	offs map[int]uint32
	scan int64
}

type refCol struct {
	col   int
	typ   datum.Type
	vals  map[int]datum.Datum
	words int
	bytes int64
}

func newRef(pm, cache int64) *ref {
	return &ref{pmBudget: pm, cacheBudget: cache, chunks: map[[2]int]*refChunk{}, cols: map[int]*refCol{}, syns: map[int][]synRow{}}
}

func (m *ref) mapBytes() int64 { return int64(len(m.chunks)) * mapBytes }

func (m *ref) beginScan() { m.scan++ }

func (m *ref) recordStart(row int, off int64) {
	if row == len(m.starts) {
		m.starts = append(m.starts, off)
	}
}

func (m *ref) get(row, a int) (uint32, bool) {
	c := m.chunks[[2]int{a, row / chunkdir.ChunkRows}]
	if c == nil {
		return 0, false
	}
	c.scan = m.scan
	rel, ok := c.offs[row]
	return rel, ok
}

func (m *ref) record(row, a int, rel uint32) {
	if rel == chunkdir.NoPosition {
		return
	}
	k := [2]int{a, row / chunkdir.ChunkRows}
	c := m.chunks[k]
	if c == nil {
		if !m.makeMapRoom() {
			return
		}
		c = &refChunk{offs: map[int]uint32{}}
		m.chunks[k] = c
		m.order = append([][2]int{k}, m.order...)
	}
	c.scan = m.scan
	if _, ok := c.offs[row]; !ok {
		m.pointers++
	}
	c.offs[row] = rel
}

func (m *ref) makeMapRoom() bool {
	if m.pmBudget <= 0 {
		return true
	}
	if mapBytes > m.pmBudget {
		return false
	}
	for m.mapBytes()+mapBytes > m.pmBudget {
		i := len(m.order) - 1
		for i >= 0 && m.chunks[m.order[i]].scan == m.scan {
			i--
		}
		if i < 0 {
			return false
		}
		k := m.order[i]
		m.pointers -= int64(len(m.chunks[k].offs))
		m.evictions++
		delete(m.chunks, k)
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
	return true
}

// nearest is Nearest by brute force: the exact hit (touched), else the
// first of up to 8 candidate attributes with a half in the chunk, nearest
// first and lower on ties, that holds the row.
func (m *ref) nearest(row, a int) (int, uint32, bool) {
	idx := row / chunkdir.ChunkRows
	k := [2]int{a, idx}
	if c := m.chunks[k]; c != nil {
		if rel, ok := c.offs[row]; ok {
			c.scan = m.scan
			for i, o := range m.order {
				if o == k {
					m.order = append(append([][2]int{k}, m.order[:i]...), m.order[i+1:]...)
					break
				}
			}
			return a, rel, true
		}
	}
	var cands []int
	for b := 0; b < attrs; b++ {
		if b != a && m.chunks[[2]int{b, idx}] != nil {
			cands = append(cands, b)
		}
	}
	dist := func(b int) int { return max(b-a, a-b) }
	sort.Slice(cands, func(i, j int) bool {
		if dist(cands[i]) != dist(cands[j]) {
			return dist(cands[i]) < dist(cands[j])
		}
		return cands[i] < cands[j]
	})
	for i, b := range cands {
		if i == 8 {
			break
		}
		if rel, ok := m.chunks[[2]int{b, idx}].offs[row]; ok {
			return b, rel, true
		}
	}
	return 0, 0, false
}

func (m *ref) positions() map[[2]int]uint32 {
	out := map[[2]int]uint32{}
	for k, c := range m.chunks {
		for row, rel := range c.offs {
			out[[2]int{row, k[0]}] = rel
		}
	}
	return out
}

func valueBytes(typ datum.Type, x datum.Datum) int64 {
	if typ == datum.Text && !x.Null() {
		return int64(16 + len(x.Text()))
	}
	return 8
}

func (m *ref) view(col int, typ datum.Type) *refCol {
	if e := m.cols[col]; e != nil {
		m.front(e)
		return e
	}
	e := &refCol{col: col, typ: typ, vals: map[int]datum.Datum{}, bytes: 128}
	if !m.makeCacheRoom(e.bytes, e) {
		return nil
	}
	m.cols[col] = e
	m.corder = append([]*refCol{e}, m.corder...)
	m.cacheBytes += e.bytes
	return e
}

func (m *ref) front(e *refCol) {
	for i, o := range m.corder {
		if o == e {
			m.corder = append(append([]*refCol{e}, m.corder[:i]...), m.corder[i+1:]...)
			return
		}
	}
}

func (m *ref) put(e *refCol, row int, x datum.Datum) bool {
	if e == nil || m.cols[e.col] != e {
		return false
	}
	if _, ok := e.vals[row]; ok {
		return true
	}
	w := row/64 + 1
	delta := valueBytes(e.typ, x) + 16*int64(max(0, w-e.words))
	if !m.makeCacheRoom(delta, e) {
		return false
	}
	e.vals[row] = x
	e.words = max(e.words, w)
	e.bytes += delta
	m.cacheBytes += delta
	return true
}

func (m *ref) makeCacheRoom(delta int64, keep *refCol) bool {
	if m.cacheBudget <= 0 {
		return true
	}
	if delta > m.cacheBudget {
		return false
	}
	for m.cacheBytes+delta > m.cacheBudget {
		var victim *refCol
		seen := 0
		for i := len(m.corder) - 1; i >= 0 && seen < 4; i-- {
			e := m.corder[i]
			if e == keep {
				continue
			}
			seen++
			if victim == nil || datum.ConversionCost(e.typ) < datum.ConversionCost(victim.typ) {
				victim = e
			}
		}
		if victim == nil {
			return false
		}
		m.removeCol(victim)
		m.cacheEvictions++
	}
	return true
}

func (m *ref) removeCol(e *refCol) {
	delete(m.cols, e.col)
	for i, o := range m.corder {
		if o == e {
			m.corder = append(m.corder[:i], m.corder[i+1:]...)
			break
		}
	}
	m.cacheBytes -= e.bytes
}

func (m *ref) drop() {
	m.starts = nil
	m.chunks = map[[2]int]*refChunk{}
	m.order = nil
	m.pointers = 0
	for _, e := range m.cols {
		m.removeCol(e)
	}
	m.syns = map[int][]synRow{}
}

// clip drops what a sidecar does not keep: positions of rows without a
// tuple start, and cached columns without a value.
func (m *ref) clip() {
	for col, e := range m.cols {
		if len(e.vals) == 0 {
			delete(m.cols, col)
		}
	}
	for _, c := range m.chunks {
		for row := range c.offs {
			if row >= len(m.starts) {
				delete(c.offs, row)
			}
		}
	}
}

// absorb is the per-value merge: tuple starts that continue m's, then
// every position recorded and every cached column put whole (or not at
// all), in ascending attribute, column and row order; a synopsis's rows
// join a column's whose rows end at off (or that has none, at off 0).
func (m *ref) absorb(sh *ref, off int) {
	for col, rows := range sh.syns {
		if mine, ok := m.syns[col]; ok && len(mine) == off || !ok && off == 0 {
			m.syns[col] = append(append([]synRow{}, mine...), rows...)
		}
	}
	if skip := len(m.starts) - off; skip >= 0 && skip < len(sh.starts) {
		m.starts = append(m.starts, sh.starts[skip:]...)
	}
	pos := sh.positions()
	keys := make([][2]int, 0, len(pos))
	for k := range pos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return keys[i][0] < keys[j][0]
	})
	for _, k := range keys {
		m.record(off+k[0], k[1], pos[k])
	}
	var cols []int
	for col := range sh.cols {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		src := sh.cols[col]
		dst := m.view(col, src.typ)
		if dst == nil || dst.typ != src.typ || len(src.vals) == 0 {
			continue
		}
		last, add := -1, 0
		for row := range src.vals {
			last = max(last, row)
		}
		w := (off+last)/64 + 1
		delta := 16 * int64(max(0, w-dst.words))
		for row, x := range src.vals {
			if _, ok := dst.vals[off+row]; !ok {
				add++
				delta += valueBytes(src.typ, x)
			}
		}
		if add == 0 || !m.makeCacheRoom(delta, dst) {
			continue
		}
		for row, x := range src.vals {
			if _, ok := dst.vals[off+row]; !ok {
				dst.vals[off+row] = x
			}
		}
		dst.words = max(dst.words, w)
		dst.bytes += delta
		m.cacheBytes += delta
	}
}
