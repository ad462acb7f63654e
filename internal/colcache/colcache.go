// Package colcache implements the PostgresRaw binary cache (paper §4.3):
// previously parsed attribute values are kept in their binary form so that
// future queries skip raw-file access and ASCII-to-binary conversion
// entirely for cached data.
//
// Entries are per column and sparse: a bitmap records which rows of the
// column have been parsed so far, because selective parsing only converts
// values of qualifying tuples. Values are stored in typed arrays (int64 /
// float64 / string), not boxed datums — this is the "binary data" the
// paper caches, and it is what makes integers cheap to keep ("integers
// take little space in memory, making them good candidates for caching").
//
// Eviction is LRU over whole columns with a conversion-cost tiebreak: among
// the oldest entries the cache prefers to evict the column that is cheapest
// to re-convert (paper: "the PostgresRaw cache always gives priority to
// attributes more costly to convert").
package colcache

import (
	"container/list"
	"math/bits"
	"sort"

	"nodb/internal/datum"
)

// victimWindow is how many LRU-tail entries are considered when picking an
// eviction victim by conversion cost.
const victimWindow = 4

// entryOverhead approximates the fixed footprint of one column entry.
const entryOverhead = 128

// Cache is the binary column cache for one raw table. Not safe for
// concurrent use; the engine serializes access per table.
type Cache struct {
	budget int64
	bytes  int64
	cols   map[int]*entry
	lru    *list.List // of *entry; front = most recent
	gen    int64      // bumped whenever an entry is removed
	rows   int        // most rows any entry has spanned; capacity hint for grow
}

type entry struct {
	col     int
	typ     datum.Type
	ints    []int64   // Int, Date, Bool payloads
	floats  []float64 // Float payloads
	strs    []string  // Text payloads
	present []uint64  // bitmap: value parsed
	nulls   []uint64  // bitmap: value is NULL
	n       int       // rows present
	bytes   int64
	elem    *list.Element
}

// New creates a cache with the given byte budget (<= 0 means unlimited).
func New(budget int64) *Cache {
	return &Cache{
		budget: budget,
		cols:   make(map[int]*entry),
		lru:    list.New(),
	}
}

// Bytes returns the accounted size of all entries.
func (c *Cache) Bytes() int64 { return c.bytes }

// Usage returns bytes/budget in [0,1]; 0 when the budget is unlimited.
func (c *Cache) Usage() float64 {
	if c.budget <= 0 {
		return 0
	}
	return float64(c.bytes) / float64(c.budget)
}

// FullyCovers reports whether every row in [0, rows) of col is cached.
// Word-at-a-time: this runs per query in the access-method decision, so a
// per-row probe loop would tax every warm scan.
func (c *Cache) FullyCovers(col, rows int) bool {
	e, ok := c.cols[col]
	if !ok || e.n < rows {
		return false
	}
	return bitRangeAllSet(e.present, 0, rows)
}

// CachedColumns returns the columns that currently have entries.
func (c *Cache) CachedColumns() []int {
	out := make([]int, 0, len(c.cols))
	for col := range c.cols {
		out = append(out, col)
	}
	return out
}

// Drop removes the entry for col (e.g. after an in-place file update).
func (c *Cache) Drop(col int) {
	if e, ok := c.cols[col]; ok {
		c.remove(e)
	}
}

// DropAll empties the cache and forgets the row span new columns are
// sized to (the file may have shrunk).
func (c *Cache) DropAll() {
	for _, e := range c.cols {
		c.remove(e)
	}
	c.rows = 0
}

// Absorb merges a worker shard — a private Cache populated with
// partition-local row numbers during a parallel partitioned scan — into c,
// shifting every row by rowOffset (>= 0). Columns merge in ascending order,
// each as a whole: when no row of the shard column's span is cached in c
// yet (always, for a scan's shards merging in partition order) the typed
// payload moves with one copy and the bitmaps with a shifted OR; otherwise
// the rows c lacks are filled in one by one. Rows c already holds keep
// their value. c's budget applies per column: other columns are evicted
// until the shard column's values fit, and a column that cannot fit is
// left out entirely (a cache is best-effort; a partially cached column
// could not serve a cache scan anyway). Within that, accounting matches
// inserting every value through View.Put. The shard must
// not be used afterwards.
func (c *Cache) Absorb(sh *Cache, rowOffset int) {
	if sh == nil || rowOffset < 0 {
		return
	}
	cols := sh.CachedColumns()
	sort.Ints(cols)
	for _, col := range cols {
		src := sh.cols[col]
		dst := c.View(col, src.typ).e
		if dst == nil || dst.typ != src.typ {
			continue
		}
		last := src.lastPresent()
		if last < 0 {
			continue
		}
		span := last + 1
		empty := !bitRangeAnySet(dst.present, rowOffset, span)
		words := (rowOffset+last)/64 + 1
		delta := int64(16 * max(0, words-len(dst.present)))
		var add int
		if empty {
			// Every shard value is new; its bytes are the shard entry's own
			// accounting minus the fixed and bitmap parts.
			add = src.n
			delta += src.bytes - entryOverhead - int64(16*len(src.present))
		} else {
			for r := 0; r < span; r++ {
				if bitGet(src.present, r) && !bitGet(dst.present, rowOffset+r) {
					add++
					delta += src.valueBytes(r)
				}
			}
		}
		if add == 0 || !c.makeRoom(delta, dst) {
			continue
		}
		dst.grow(rowOffset+last, c)
		if empty {
			switch src.typ {
			case datum.Float:
				copy(dst.floats[rowOffset:], src.floats[:span])
			case datum.Text:
				copy(dst.strs[rowOffset:], src.strs[:span])
			default:
				copy(dst.ints[rowOffset:], src.ints[:span])
			}
			bitsOrShifted(dst.present, src.present, rowOffset)
			bitsOrShifted(dst.nulls, src.nulls, rowOffset)
		} else {
			for r := 0; r < span; r++ {
				if bitGet(src.present, r) && !bitGet(dst.present, rowOffset+r) {
					dst.copyFrom(src, r, rowOffset+r)
				}
			}
		}
		dst.n += add
		dst.bytes += delta
		c.bytes += delta
	}
}

// ColumnData is the serializable content of one cached column — what the
// sidecar checkpoints and restores. Only the payload slice matching Type
// is populated.
type ColumnData struct {
	Col     int
	Type    datum.Type
	N       int // rows present
	Present []uint64
	Nulls   []uint64
	Ints    []int64
	Floats  []float64
	Strs    []string
}

// Export snapshots col's entry for checkpointing. The returned slices
// alias the live entry: callers serialize under the table lock and must
// not retain them past it.
func (c *Cache) Export(col int) (ColumnData, bool) {
	e, ok := c.cols[col]
	if !ok {
		return ColumnData{}, false
	}
	return ColumnData{
		Col: e.col, Type: e.typ, N: e.n,
		Present: e.present, Nulls: e.nulls,
		Ints: e.ints, Floats: e.floats, Strs: e.strs,
	}, true
}

// Restore installs a previously exported column wholesale, recomputing the
// byte accounting. Best-effort like every cache insert: when the entry
// cannot fit in the budget even after evictions it is skipped and the
// cache is unchanged. An existing entry for the column is replaced.
func (c *Cache) Restore(d ColumnData) bool {
	if d.N <= 0 || len(d.Present) == 0 {
		return false
	}
	bytes := int64(entryOverhead) + int64(16*len(d.Present))
	for r := 0; r < len(d.Present)*64; r++ {
		if !bitGet(d.Present, r) {
			continue
		}
		if d.Type == datum.Text && !bitGet(d.Nulls, r) && r < len(d.Strs) {
			bytes += int64(16 + len(d.Strs[r]))
		} else {
			bytes += 8
		}
	}
	c.Drop(d.Col)
	e := &entry{
		col: d.Col, typ: d.Type, n: d.N, bytes: bytes,
		present: d.Present, nulls: d.Nulls,
		ints: d.Ints, floats: d.Floats, strs: d.Strs,
	}
	if !c.makeRoom(bytes, e) {
		return false
	}
	c.cols[d.Col] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += bytes
	return true
}

// remove detaches an entry and fixes accounting.
func (c *Cache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.cols, e.col)
	c.bytes -= e.bytes
	c.gen++
}

// makeRoom evicts entries (never keep) until delta more bytes fit in the
// budget. Returns false if impossible.
func (c *Cache) makeRoom(delta int64, keep *entry) bool {
	if c.budget <= 0 {
		return true
	}
	if delta > c.budget {
		return false
	}
	for c.bytes+delta > c.budget {
		victim := c.pickVictim(keep)
		if victim == nil {
			return false
		}
		c.remove(victim)
	}
	return true
}

// pickVictim scans up to victimWindow entries from the LRU tail and picks
// the one with the lowest conversion cost (cheapest to rebuild), breaking
// ties towards the least recently used.
func (c *Cache) pickVictim(keep *entry) *entry {
	var best *entry
	bestCost := int(^uint(0) >> 1)
	el := c.lru.Back()
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

// grow extends the entry's arrays to hold row, returning the byte delta of
// the growth that should be accounted (bitmap words only; value payloads
// are accounted on set). Every column of a table spans the same rows, so
// an array that must be reallocated goes straight to the span c has seen
// (c.rows): under a tight budget a scan re-creates evicted columns query
// after query, and growing each by append's doubling allocated several
// times the column and copied it as often.
func (e *entry) grow(row int, c *Cache) int64 {
	if row >= c.rows {
		c.rows = row + 1
	}
	var delta int64
	if n := row/64 + 1 - len(e.present); n > 0 {
		words := (c.rows + 63) / 64
		e.present = extend(e.present, n, words)
		e.nulls = extend(e.nulls, n, words)
		delta = int64(16 * n)
	}
	switch e.typ {
	case datum.Int, datum.Date, datum.Bool:
		e.ints = extend(e.ints, row+1-len(e.ints), c.rows)
	case datum.Float:
		e.floats = extend(e.floats, row+1-len(e.floats), c.rows)
	case datum.Text:
		e.strs = extend(e.strs, row+1-len(e.strs), c.rows)
	}
	return delta
}

// extend appends n zero values to s (n <= 0: none) — one growth step
// whether a scan adds the next row or a merge adds a partition's worth.
// When s must be reallocated and hint exceeds the new length, the new
// array gets capacity hint at once; otherwise append's amortized growth
// applies. (The compiler grows s in place; append's make allocates
// nothing.)
func extend[T any](s []T, n, hint int) []T {
	if n <= 0 {
		return s
	}
	if need := len(s) + n; need > cap(s) && hint > need {
		t := make([]T, need, hint)
		copy(t, s)
		return t
	}
	return append(s, make([]T, n)...)
}

// set stores the payload for row (arrays must already cover row).
func (e *entry) set(row int, d datum.Datum) {
	bitSet(e.present, row)
	if d.Null() {
		bitSet(e.nulls, row)
		return
	}
	switch e.typ {
	case datum.Int, datum.Date:
		e.ints[row] = d.Int()
	case datum.Bool:
		if d.Bool() {
			e.ints[row] = 1
		} else {
			e.ints[row] = 0
		}
	case datum.Float:
		e.floats[row] = d.Float()
	case datum.Text:
		e.strs[row] = d.Text()
	}
}

// lastPresent returns the highest cached row of the entry, -1 when empty.
func (e *entry) lastPresent() int {
	for w := len(e.present) - 1; w >= 0; w-- {
		if e.present[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(e.present[w])
		}
	}
	return -1
}

// valueBytes is the accounted size of the cached value at row.
func (e *entry) valueBytes(row int) int64 {
	if e.typ == datum.Text && !bitGet(e.nulls, row) {
		return int64(16 + len(e.strs[row]))
	}
	return 8
}

// copyFrom stores src's cached value at row from as row to (arrays must
// already cover to; the entries share a type).
func (e *entry) copyFrom(src *entry, from, to int) {
	bitSet(e.present, to)
	if bitGet(src.nulls, from) {
		bitSet(e.nulls, to)
		return
	}
	switch e.typ {
	case datum.Float:
		e.floats[to] = src.floats[from]
	case datum.Text:
		e.strs[to] = src.strs[from]
	default:
		e.ints[to] = src.ints[from]
	}
}

// bitsOrShifted ORs src into dst moved up by shift bits: bit i of src lands
// on bit shift+i of dst. dst must reach the highest set bit's target.
func bitsOrShifted(dst, src []uint64, shift int) {
	ws, bs := shift/64, uint(shift%64)
	for w, x := range src {
		if x == 0 {
			continue
		}
		dst[w+ws] |= x << bs
		if hi := x >> (64 - bs); hi != 0 { // bs == 0 shifts everything out
			dst[w+ws+1] |= hi
		}
	}
}

// valueBytes is the accounted size of one cached value.
func valueBytes(typ datum.Type, d datum.Datum) int64 {
	if typ == datum.Text && !d.Null() {
		return int64(16 + len(d.Text()))
	}
	return 8
}

func bitGet(bm []uint64, i int) bool {
	w := i / 64
	return w < len(bm) && bm[w]&(1<<uint(i%64)) != 0
}

// bitRangeAllSet reports whether every bit in [start, start+n) is set,
// scanning word-at-a-time: full interior words compare against ^0, the
// partial edge words against masks.
func bitRangeAllSet(bm []uint64, start, n int) bool {
	if n <= 0 {
		return true
	}
	end := start + n // exclusive
	if (end+63)/64 > len(bm) {
		return false
	}
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
	if fw >= len(bm) {
		return false
	}
	lo := ^uint64(0) << uint(start%64)
	hi := ^uint64(0) >> uint(63-(end-1)%64)
	if lw >= len(bm) {
		// The range extends past the bitmap; every stored word from lw on
		// is fully inside it.
		lw = len(bm) - 1
		hi = ^uint64(0)
	}
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

func bitSet(bm []uint64, i int) {
	bm[i/64] |= 1 << uint(i%64)
}

// View is a scan-lifetime read/write handle onto one column's cache entry,
// the cache's only access path. The column is looked up and touched once,
// when the view is created, which is also the right LRU granularity for a
// scan (one query = one use of a column).
//
// A view stays safe if its column is evicted mid-scan: reads keep serving
// the detached entry's (still correct) values and writes to it are simply
// lost with the entry. Call View again per scan, never retain across
// queries.
type View struct {
	c   *Cache
	e   *entry
	gen int64 // cache generation when the view last verified attachment
}

// View returns a handle for col, creating the entry (subject to budget) if
// absent. Valid() reports whether the handle is usable.
func (c *Cache) View(col int, typ datum.Type) View {
	e, ok := c.cols[col]
	if !ok {
		e = &entry{col: col, typ: typ, bytes: entryOverhead}
		if !c.makeRoom(e.bytes, e) {
			return View{}
		}
		c.cols[col] = e
		e.elem = c.lru.PushFront(e)
		c.bytes += e.bytes
	} else {
		c.lru.MoveToFront(e.elem)
	}
	return View{c: c, e: e, gen: c.gen}
}

// ReadView returns a read-only handle for col without any side effects: no
// entry creation, no LRU movement. Multiple goroutines
// may hold and Get through ReadViews of the same cache concurrently as long
// as no writer is active — which is what lets fully-cached scans of one
// table run in parallel under a shared table lock. The returned view is
// invalid if the column has no entry; calling Put on it is a bug.
func (c *Cache) ReadView(col int) View {
	e, ok := c.cols[col]
	if !ok {
		return View{}
	}
	return View{c: c, e: e, gen: c.gen}
}

// Valid reports whether the view is attached to an entry.
func (v View) Valid() bool { return v.e != nil }

// Get returns the cached value at row without LRU side effects.
func (v View) Get(row int) (datum.Datum, bool) {
	e := v.e
	if e == nil || row < 0 || !bitGet(e.present, row) {
		return datum.Datum{}, false
	}
	if bitGet(e.nulls, row) {
		return datum.NewNull(e.typ), true
	}
	switch e.typ {
	case datum.Int:
		return datum.NewInt(e.ints[row]), true
	case datum.Date:
		return datum.NewDate(e.ints[row]), true
	case datum.Bool:
		return datum.NewBool(e.ints[row] != 0), true
	case datum.Float:
		return datum.NewFloat(e.floats[row]), true
	case datum.Text:
		return datum.NewText(e.strs[row]), true
	}
	return datum.Datum{}, false
}

// GetBatch densely copies the cached values of rows [start, start+n) into
// dst (which must have length >= n), returning false if any row in the
// range is absent. Presence is verified word-at-a-time up front and, when
// the range carries no NULLs (the common fully-cached case), the per-row
// bitmap probes disappear entirely: each type runs a tight loop over a
// contiguous subslice of the entry's typed payload array. For Text columns
// that subslice is the per-batch string arena — the batch's datums alias
// one contiguous run of string headers instead of probing two bitmaps per
// row, which is what keeps the compiled filter and projection kernels
// reading these vectors cheap.
//
//nodb:hotpath
func (v View) GetBatch(start, n int, dst []datum.Datum) bool {
	e := v.e
	if e == nil || start < 0 {
		return false
	}
	if n == 0 {
		return true
	}
	if !bitRangeAllSet(e.present, start, n) {
		return false
	}
	if !bitRangeAnySet(e.nulls, start, n) {
		// Dense, NULL-free: no per-row bitmap work.
		switch e.typ {
		case datum.Int:
			for i, x := range e.ints[start : start+n] {
				dst[i] = datum.NewInt(x)
			}
		case datum.Date:
			for i, x := range e.ints[start : start+n] {
				dst[i] = datum.NewDate(x)
			}
		case datum.Bool:
			for i, x := range e.ints[start : start+n] {
				dst[i] = datum.NewBool(x != 0)
			}
		case datum.Float:
			for i, x := range e.floats[start : start+n] {
				dst[i] = datum.NewFloat(x)
			}
		case datum.Text:
			arena := e.strs[start : start+n]
			for i := range arena {
				dst[i] = datum.NewText(arena[i])
			}
		default:
			return false
		}
		return true
	}
	// NULL-bearing range: presence already verified, probe only the null
	// bitmap per row.
	switch e.typ {
	case datum.Int:
		for i := 0; i < n; i++ {
			if r := start + i; bitGet(e.nulls, r) {
				dst[i] = datum.NewNull(e.typ)
			} else {
				dst[i] = datum.NewInt(e.ints[r])
			}
		}
	case datum.Date:
		for i := 0; i < n; i++ {
			if r := start + i; bitGet(e.nulls, r) {
				dst[i] = datum.NewNull(e.typ)
			} else {
				dst[i] = datum.NewDate(e.ints[r])
			}
		}
	case datum.Bool:
		for i := 0; i < n; i++ {
			if r := start + i; bitGet(e.nulls, r) {
				dst[i] = datum.NewNull(e.typ)
			} else {
				dst[i] = datum.NewBool(e.ints[r] != 0)
			}
		}
	case datum.Float:
		for i := 0; i < n; i++ {
			if r := start + i; bitGet(e.nulls, r) {
				dst[i] = datum.NewNull(e.typ)
			} else {
				dst[i] = datum.NewFloat(e.floats[r])
			}
		}
	case datum.Text:
		for i := 0; i < n; i++ {
			if r := start + i; bitGet(e.nulls, r) {
				dst[i] = datum.NewNull(e.typ)
			} else {
				dst[i] = datum.NewText(e.strs[r])
			}
		}
	default:
		return false
	}
	return true
}

// Put inserts the parsed value of row (best effort, no LRU churn): when
// the value cannot fit even after evicting other columns, it is dropped.
// A value already cached for row is kept. Returns false if the value could
// not be kept.
func (v *View) Put(row int, d datum.Datum) bool {
	e := v.e
	if e == nil || row < 0 {
		return false
	}
	// The entry may have been evicted by budget pressure from another
	// column; while the cache generation is unchanged no entry has been
	// removed, so the attachment check is free. After a generation bump,
	// re-verify through the map once and refresh the view's generation.
	if v.gen != v.c.gen {
		if v.c.cols[e.col] != e {
			return false
		}
		v.gen = v.c.gen
	}
	if bitGet(e.present, row) {
		return true
	}
	delta := e.grow(row, v.c)
	delta += valueBytes(e.typ, d)
	if !v.c.makeRoom(delta, e) {
		return false
	}
	e.set(row, d)
	e.n++
	e.bytes += delta
	v.c.bytes += delta
	return true
}
