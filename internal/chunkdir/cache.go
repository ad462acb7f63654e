package chunkdir

import (
	"math/bits"

	"nodb/internal/datum"
)

// The cache halves: views, accounting and eviction.

// victimWindow is how many LRU-tail columns are considered when picking an
// eviction victim by conversion cost.
const victimWindow = 4

// entryOverhead approximates the fixed footprint of one cached column.
const entryOverhead = 128

// CacheBytes returns the accounted size of all cached columns.
func (d *Dir) CacheBytes() int64 { return d.cacheBytes }

// CacheUsage returns bytes/budget in [0,1]; 0 when the budget is unlimited.
func (d *Dir) CacheUsage() float64 {
	if d.cacheBudget <= 0 {
		return 0
	}
	return float64(d.cacheBytes) / float64(d.cacheBudget)
}

// entry returns col's cache entry, or nil.
func (d *Dir) entry(col int) *entry {
	if col < 0 || col >= len(d.cols) {
		return nil
	}
	return d.cols[col].cache
}

// CachedColumns returns the cached columns, ascending.
func (d *Dir) CachedColumns() []int {
	var out []int
	for col := range d.cols {
		if d.cols[col].cache != nil {
			out = append(out, col)
		}
	}
	return out
}

// FullyCovers reports whether every row in [0, rows) of col is cached,
// word-at-a-time: this runs per query in the access-method decision.
func (d *Dir) FullyCovers(col, rows int) bool {
	e := d.entry(col)
	if e == nil || e.n < rows {
		return false
	}
	for idx := 0; idx*ChunkRows < rows; idx++ {
		s := d.at(col, idx)
		if s == nil || s.Seg == nil || !bitRangeAllSet(s.Seg.Present[:], 0, min(ChunkRows, rows-idx*ChunkRows)) {
			return false
		}
	}
	return true
}

// cached reports whether row of col is cached.
func (d *Dir) cached(col, row int) bool {
	s := d.at(col, row/ChunkRows)
	return s != nil && s.Seg != nil && bitGet(s.Seg.Present[:], row%ChunkRows)
}

// anyCached reports whether any row in [start, start+n) of col is cached.
func (d *Dir) anyCached(col, start, n int) bool {
	for n > 0 {
		r := start % ChunkRows
		k := min(n, ChunkRows-r)
		if s := d.at(col, start/ChunkRows); s != nil && s.Seg != nil && bitRangeAnySet(s.Seg.Present[:], r, k) {
			return true
		}
		start += k
		n -= k
	}
	return false
}

// remove detaches a cached column, leaving its segments to the views that
// still hold it, and fixes accounting.
func (d *Dir) remove(e *entry) {
	d.cacheLRU.Remove(e.elem)
	e.elem = nil
	c := &d.cols[e.col]
	c.cache = nil
	e.segs = make([]*Segment, len(c.slots))
	for idx, s := range c.slots {
		if s != nil && s.Seg != nil {
			e.segs[idx], s.Seg = s.Seg, nil
			d.prune(s)
		}
	}
	d.cacheBytes -= e.bytes
	d.cacheGen++
}

// bitmapGrowth is the charge for e's bitmaps to reach w words.
func (e *entry) bitmapGrowth(w int) int64 { return int64(16 * max(0, w-e.words)) }

// charge accounts n new rows of e reaching bitmap word w, delta bytes.
func (d *Dir) charge(e *entry, n, w int, delta int64) {
	e.n, e.words, e.bytes = e.n+n, max(e.words, w), e.bytes+delta
	d.cacheBytes += delta
}

// makeCacheRoom evicts columns (never keep) until delta more bytes fit in
// the budget. Returns false if impossible.
func (d *Dir) makeCacheRoom(delta int64, keep *entry) bool {
	if d.cacheBudget <= 0 {
		return true
	}
	if delta > d.cacheBudget {
		return false
	}
	for d.cacheBytes+delta > d.cacheBudget {
		victim := d.pickVictim(keep)
		if victim == nil {
			return false
		}
		d.remove(victim)
	}
	return true
}

// pickVictim scans up to victimWindow columns from the LRU tail and picks
// the one with the lowest conversion cost (cheapest to rebuild), breaking
// ties towards the least recently used.
func (d *Dir) pickVictim(keep *entry) *entry {
	var best *entry
	bestCost := int(^uint(0) >> 1)
	el := d.cacheLRU.Back()
	for i := 0; i < victimWindow && el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e == keep {
			continue
		}
		i++
		if cost := datum.ConversionCost(e.typ); cost < bestCost {
			bestCost = cost
			best = e
		}
	}
	return best
}

// newSegment allocates an empty segment for typ values.
func newSegment(typ datum.Type) *Segment {
	sg := &Segment{}
	switch typ {
	case datum.Float:
		sg.Floats = make([]float64, ChunkRows)
	case datum.Text:
		sg.Strs = make([]string, ChunkRows)
	default:
		sg.Ints = make([]int64, ChunkRows)
	}
	return sg
}

// valid reports whether sg's payload arrays are those of a typ segment.
func (sg *Segment) valid(typ datum.Type) bool {
	switch typ {
	case datum.Int, datum.Date, datum.Bool:
		return len(sg.Ints) == ChunkRows && sg.Floats == nil && sg.Strs == nil
	case datum.Float:
		return len(sg.Floats) == ChunkRows && sg.Ints == nil && sg.Strs == nil
	case datum.Text:
		return len(sg.Strs) == ChunkRows && sg.Ints == nil && sg.Floats == nil
	}
	return false
}

// each calls fn for every present row of sg, ascending.
func (sg *Segment) each(fn func(r int)) {
	for w, x := range sg.Present {
		for x != 0 {
			fn(w*64 + bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
}

// last returns the highest present row of sg, -1 when empty.
func (sg *Segment) last() int {
	for w := words - 1; w >= 0; w-- {
		if x := sg.Present[w]; x != 0 {
			return w*64 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
}

// valueBytes is the accounted size of the value at row r.
func (sg *Segment) valueBytes(typ datum.Type, r int) int64 {
	if typ == datum.Text && !bitGet(sg.Nulls[:], r) {
		return int64(16 + len(sg.Strs[r]))
	}
	return 8
}

// set stores d at row r (not yet present).
func (sg *Segment) set(r int, typ datum.Type, d datum.Datum) {
	bitSet(sg.Present[:], r)
	sg.n++
	if d.Null() {
		bitSet(sg.Nulls[:], r)
		sg.bytes += 8
		return
	}
	switch typ {
	case datum.Int, datum.Date:
		sg.Ints[r] = d.Int()
	case datum.Bool:
		sg.Ints[r] = 0
		if d.Bool() {
			sg.Ints[r] = 1
		}
	case datum.Float:
		sg.Floats[r] = d.Float()
	case datum.Text:
		sg.Strs[r] = d.Text()
	}
	sg.bytes += sg.valueBytes(typ, r)
}

// fill copies src's values of rows [lo, hi) to rows shift further on (a
// negative shift moves them back), keeping the rows sg holds already.
// Into a range sg holds nothing of, that is one typed run and a shifted OR
// of each bitmap.
func (sg *Segment) fill(src *Segment, lo, hi, shift int, typ datum.Type) {
	if !bitRangeAnySet(sg.Present[:], lo+shift, hi-lo) {
		switch typ {
		case datum.Float:
			copy(sg.Floats[lo+shift:hi+shift], src.Floats[lo:hi])
		case datum.Text:
			copy(sg.Strs[lo+shift:hi+shift], src.Strs[lo:hi])
		default:
			copy(sg.Ints[lo+shift:hi+shift], src.Ints[lo:hi])
		}
		n := orShifted(&sg.Present, &src.Present, lo, hi, shift)
		orShifted(&sg.Nulls, &src.Nulls, lo, hi, shift)
		sg.n += n
		if typ != datum.Text {
			sg.bytes += 8 * int64(n)
			return
		}
		for r := lo; r < hi; r++ {
			if bitGet(src.Present[:], r) {
				sg.bytes += src.valueBytes(typ, r)
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		t := r + shift
		if !bitGet(src.Present[:], r) || bitGet(sg.Present[:], t) {
			continue
		}
		bitSet(sg.Present[:], t)
		sg.n++
		sg.bytes += src.valueBytes(typ, r)
		switch {
		case bitGet(src.Nulls[:], r):
			bitSet(sg.Nulls[:], t)
		case typ == datum.Float:
			sg.Floats[t] = src.Floats[r]
		case typ == datum.Text:
			sg.Strs[t] = src.Strs[r]
		default:
			sg.Ints[t] = src.Ints[r]
		}
	}
}

// orShifted ORs bits [lo, hi) of src into dst, each moved shift places,
// one source word at a time, and returns how many were set. The moved
// range must stay inside the bitmap.
func orShifted(dst, src *[words]uint64, lo, hi, shift int) int {
	set := 0
	for i := lo; i < hi; {
		w, b := i/64, i%64
		n := min(64-b, hi-i)
		x := src[w] >> uint(b) & (uint64(1)<<uint(n) - 1)
		t := i + shift
		tw, tb := t/64, t%64
		dst[tw] |= x << uint(tb)
		if tb+n > 64 {
			dst[tw+1] |= x >> uint(64-tb)
		}
		set += bits.OnesCount64(x)
		i += n
	}
	return set
}

// valueBytes is the accounted size of one value.
func valueBytes(typ datum.Type, d datum.Datum) int64 {
	if typ == datum.Text && !d.Null() {
		return int64(16 + len(d.Text()))
	}
	return 8
}

// View is a scan-lifetime handle onto one cached column, touched once in
// the LRU when created (one query = one use of a column). If the column
// is evicted mid-scan, reads keep serving the segments it held and writes
// are dropped. Never retain a view across queries.
type View struct {
	d *Dir
	e *entry

	// The segment of chunk segIdx (nil = none), resolved once per chunk
	// while the cache generation stays gen: scans read and write in row
	// order.
	seg    *Segment
	segIdx int
	gen    int64
}

// View returns a handle for col, caching it (subject to the budget) if
// absent. Valid() reports whether the handle is usable.
func (d *Dir) View(col int, typ datum.Type) View {
	if col < 0 {
		return View{}
	}
	e := d.entry(col)
	if e == nil {
		e = &entry{col: col, typ: typ, bytes: entryOverhead}
		if !d.makeCacheRoom(e.bytes, e) {
			return View{}
		}
		d.column(col).cache = e
		e.elem = d.cacheLRU.PushFront(e)
		d.cacheBytes += e.bytes
	} else {
		d.cacheLRU.MoveToFront(e.elem)
	}
	return View{d: d, e: e, segIdx: -1}
}

// ReadView returns a read-only handle for col without side effects: no
// caching, no LRU movement. Goroutines may Get through ReadViews of one
// directory concurrently while no writer is active — which is what lets
// fully cached scans of a table run in parallel under a shared table lock.
// The view is invalid if col is not cached; calling Put on it is a bug.
func (d *Dir) ReadView(col int) View {
	e := d.entry(col)
	if e == nil {
		return View{}
	}
	return View{d: d, e: e, segIdx: -1}
}

// Valid reports whether the view is attached to a column.
func (v View) Valid() bool { return v.e != nil }

// segment returns the view's segment for chunk idx, or nil.
func (v View) segment(idx int) *Segment {
	if v.e.elem == nil { // evicted: serve what the column held
		if idx < len(v.e.segs) {
			return v.e.segs[idx]
		}
		return nil
	}
	if s := v.d.at(v.e.col, idx); s != nil {
		return s.Seg
	}
	return nil
}

// Get returns the cached value at row without LRU side effects.
func (v *View) Get(row int) (datum.Datum, bool) {
	if v.e == nil || row < 0 {
		return datum.Datum{}, false
	}
	sg, r := v.at(row/ChunkRows), row%ChunkRows
	if sg == nil || !bitGet(sg.Present[:], r) {
		return datum.Datum{}, false
	}
	if bitGet(sg.Nulls[:], r) {
		return datum.NewNull(v.e.typ), true
	}
	switch v.e.typ {
	case datum.Int:
		return datum.NewInt(sg.Ints[r]), true
	case datum.Date:
		return datum.NewDate(sg.Ints[r]), true
	case datum.Bool:
		return datum.NewBool(sg.Ints[r] != 0), true
	case datum.Float:
		return datum.NewFloat(sg.Floats[r]), true
	}
	return datum.NewText(sg.Strs[r]), true
}

// at returns the segment of chunk idx through the view's one-chunk cache.
func (v *View) at(idx int) *Segment {
	if v.segIdx != idx || v.gen != v.d.cacheGen {
		v.seg, v.segIdx, v.gen = v.segment(idx), idx, v.d.cacheGen
	}
	return v.seg
}

// GetBatch densely copies the cached values of rows [start, start+n) into
// dst (len >= n), returning false if any row is absent. Per segment it
// checks presence word-at-a-time, runs one typed loop over the payload
// (for Text, the batch's datums alias one run of string headers), then
// overwrites NULL rows.
//
//nodb:hotpath
func (v View) GetBatch(start, n int, dst []datum.Datum) bool {
	if v.e == nil || start < 0 {
		return false
	}
	typ := v.e.typ
	for n > 0 {
		r := start % ChunkRows
		k := min(n, ChunkRows-r)
		sg := v.segment(start / ChunkRows)
		if sg == nil || !bitRangeAllSet(sg.Present[:], r, k) {
			return false
		}
		out := dst[:k]
		switch typ {
		case datum.Int:
			for i, x := range sg.Ints[r : r+k] {
				out[i] = datum.NewInt(x)
			}
		case datum.Date:
			for i, x := range sg.Ints[r : r+k] {
				out[i] = datum.NewDate(x)
			}
		case datum.Bool:
			for i, x := range sg.Ints[r : r+k] {
				out[i] = datum.NewBool(x != 0)
			}
		case datum.Float:
			for i, x := range sg.Floats[r : r+k] {
				out[i] = datum.NewFloat(x)
			}
		case datum.Text:
			arena := sg.Strs[r : r+k]
			for i := range arena {
				out[i] = datum.NewText(arena[i])
			}
		default:
			return false
		}
		if bitRangeAnySet(sg.Nulls[:], r, k) {
			for i := range out {
				if bitGet(sg.Nulls[:], r+i) {
					out[i] = datum.NewNull(typ)
				}
			}
		}
		start += k
		n -= k
		dst = dst[k:]
	}
	return true
}

// Put caches the parsed value of row (best effort, no LRU churn): when the
// value cannot fit even after evicting other columns, it is dropped. A
// value already cached for row is kept. Returns false if the value could
// not be kept.
func (v *View) Put(row int, x datum.Datum) bool {
	e := v.e
	if e == nil || row < 0 || e.elem == nil { // evicted by another column's put
		return false
	}
	d := v.d
	idx, r := row/ChunkRows, row%ChunkRows
	if sg := v.at(idx); sg != nil && bitGet(sg.Present[:], r) {
		return true
	}
	w := row/64 + 1
	delta := valueBytes(e.typ, x) + e.bitmapGrowth(w)
	if !d.makeCacheRoom(delta, e) {
		return false
	}
	if v.seg == nil {
		v.seg = newSegment(e.typ)
		d.slot(e.col, idx).Seg = v.seg
	}
	v.seg.set(r, e.typ, x)
	d.charge(e, 1, w, delta)
	return true
}

// The bitmap helpers work on a segment's fixed-size bitmaps; ranges never
// leave them.

func bitGet(bm []uint64, i int) bool { return bm[i/64]&(1<<uint(i%64)) != 0 }

func bitSet(bm []uint64, i int) {
	bm[i/64] |= 1 << uint(i%64)
}

// bitRangeAllSet reports whether every bit in [start, start+n) is set,
// scanning word-at-a-time: full interior words compare against ^0, the
// partial edge words against masks.
func bitRangeAllSet(bm []uint64, start, n int) bool {
	if n <= 0 {
		return true
	}
	end := start + n // exclusive
	fw, lw := start/64, (end-1)/64
	lo := ^uint64(0) << uint(start%64)
	hi := ^uint64(0) >> uint(63-(end-1)%64)
	if fw == lw {
		m := lo & hi
		return bm[fw]&m == m
	}
	if bm[fw]&lo != lo {
		return false
	}
	for w := fw + 1; w < lw; w++ {
		if bm[w] != ^uint64(0) {
			return false
		}
	}
	return bm[lw]&hi == hi
}

// bitRangeAnySet reports whether any bit in [start, start+n) is set,
// word-at-a-time.
func bitRangeAnySet(bm []uint64, start, n int) bool {
	if n <= 0 {
		return false
	}
	end := start + n
	fw, lw := start/64, (end-1)/64
	lo := ^uint64(0) << uint(start%64)
	hi := ^uint64(0) >> uint(63-(end-1)%64)
	if fw == lw {
		return bm[fw]&lo&hi != 0
	}
	if bm[fw]&lo != 0 {
		return true
	}
	for w := fw + 1; w < lw; w++ {
		if bm[w] != 0 {
			return true
		}
	}
	return bm[lw]&hi != 0
}
