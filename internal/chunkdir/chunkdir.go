// Package chunkdir is the one directory of a raw table's adaptive state.
// The positional map (paper §4.2) and the binary cache (§4.3) both
// partition the table's rows, so both live in one grid of (column, chunk)
// slots of ChunkRows rows. A slot holds, optionally, the map half (per row
// the column's offset from the tuple start) and the cache half (a typed
// value Segment with present and NULL bitmaps). Tuple starts — the paper's
// minimal end-of-line map — are one dense array per table.
//
// The halves keep the paper's two knobs, each with its own budget: the
// map is LRU over slots with the current scan's slots pinned, charging
// ChunkRows*4+64 bytes per half; the cache is LRU over whole columns, the
// cheapest to re-convert of the victimWindow oldest going first, charging
// a column 128 bytes, 16 per bitmap word up to its highest cached row and
// 8 per value (16+len per Text value).
//
// Lifecycle rules are written once, over slots: Drop forgets everything;
// Absorb merges a shard, adopting slot halves by pointer at a chunk-aligned
// row offset; the sidecar installs its slots through Absorb. Scans go
// through Cursor, Writer and View, which resolve a slot once per chunk. A
// Dir is not safe for concurrent use; the engine serializes access per
// table.
package chunkdir

import (
	"container/list"

	"nodb/internal/datum"
)

// ChunkRows is the number of rows one slot covers: one default batch, and
// small enough for a map half to sit in CPU caches.
const ChunkRows = 1024

// words is the bitmap length of one segment.
const words = ChunkRows / 64

// NoPosition marks an absent entry in a map half.
const NoPosition = ^uint32(0)

// mapSlotBytes is the accounted size of one map half.
const mapSlotBytes = ChunkRows*4 + 64

// Slot is the adaptive state of one column over one chunk of rows.
type Slot struct {
	Offs []uint32 // map half: ChunkRows offsets; nil = none
	Seg  *Segment // cache half; nil = none

	col, idx int
	n        int           // valid entries of Offs
	scan     int64         // last scan that touched the map half (pinning)
	elem     *list.Element // map LRU position
}

// Segment is the cache half of a slot: one chunk of a column's values in
// binary form. Only the payload array matching the column type is set,
// with ChunkRows entries.
type Segment struct {
	Ints    []int64   // Int, Date, Bool
	Floats  []float64 // Float
	Strs    []string  // Text
	Present [words]uint64
	Nulls   [words]uint64

	n     int   // rows present
	bytes int64 // accounted value bytes
}

// column is one column's row of slots plus its cache entry.
type column struct {
	slots   []*Slot // index = chunk; nil = empty
	mapLive int     // slots with a map half
	mapGen  int64   // bumped when this column's set of map halves changes
	cache   *entry  // nil = not cached
}

// entry is a cached column: the unit of cache accounting and eviction.
type entry struct {
	col   int
	typ   datum.Type
	n     int   // rows present
	words int   // bitmap words charged: highest cached row / 64 + 1
	bytes int64 // entryOverhead + 16*words + value bytes
	elem  *list.Element
	segs  []*Segment // set when evicted, for views that outlive the entry
}

// MapMetrics counts the map's activity (Fig 3's x-axis is the number of
// recorded pointers).
type MapMetrics struct {
	Pointers  int64 // live in-memory position entries
	Evictions int64 // map halves evicted
}

// Dir is the adaptive-state directory of one raw table.
type Dir struct {
	numAttrs int // attributes the map records; cache columns may exceed it
	starts   []int64
	cols     []column

	pmBudget  int64
	pmBytes   int64
	lru       *list.List // of *Slot with a map half, front = most recent
	chunksAt  []int32    // per chunk: map halves across all columns
	attrsAt   [][]int32  // per chunk: sorted columns with a map half
	curScan   int64      // stamp of the scan currently recording
	globalGen int64      // bumped on any map-half arrival/departure/BeginScan
	evictGen  int64      // bumped when a map half leaves memory
	pm        MapMetrics

	cacheBudget int64
	cacheBytes  int64
	cacheLRU    *list.List // of *entry, front = most recent
	cacheGen    int64      // bumped whenever an entry is removed
}

// New creates an empty directory for a table of numAttrs attributes with
// the given map and cache budgets in bytes (<= 0 = unlimited).
func New(numAttrs int, mapBudget, cacheBudget int64) *Dir {
	return &Dir{
		numAttrs:    numAttrs,
		cols:        make([]column, numAttrs),
		pmBudget:    mapBudget,
		lru:         list.New(),
		cacheBudget: cacheBudget,
		cacheLRU:    list.New(),
	}
}

// at returns slot (col, idx), or nil.
func (d *Dir) at(col, idx int) *Slot {
	if col < len(d.cols) && idx < len(d.cols[col].slots) {
		return d.cols[col].slots[idx]
	}
	return nil
}

// column returns col's entry in the directory, growing it for cache
// columns past the map's attributes.
func (d *Dir) column(col int) *column {
	for len(d.cols) <= col {
		d.cols = append(d.cols, column{})
	}
	return &d.cols[col]
}

// slot returns slot (col, idx), creating an empty one.
func (d *Dir) slot(col, idx int) *Slot {
	c := d.column(col)
	for len(c.slots) <= idx {
		c.slots = append(c.slots, nil)
	}
	if c.slots[idx] == nil {
		c.slots[idx] = &Slot{col: col, idx: idx}
	}
	return c.slots[idx]
}

// prune forgets s once neither half is left.
func (d *Dir) prune(s *Slot) {
	if s.Offs == nil && s.Seg == nil {
		d.cols[s.col].slots[s.idx] = nil
	}
}

// Starts returns the tuple-start offsets (index = row), aliasing the
// directory: read under the table lock, never retain or mutate.
func (d *Dir) Starts() []int64 { return d.starts }

// Slots returns col's slots (index = chunk, nil = empty), for the sidecar
// checkpoint; read-only, under the table lock.
func (d *Dir) Slots(col int) []*Slot {
	if col < 0 || col >= len(d.cols) {
		return nil
	}
	return d.cols[col].slots
}

// Drop discards tuple starts, map halves and cached columns when the file
// changed in place, shrank or was rewritten (paper §4.5). Open views,
// cursors and writers stay safe; the directory stays usable.
func (d *Dir) Drop() {
	d.starts = d.starts[:0]
	for c := range d.cols {
		col := &d.cols[c]
		if col.cache != nil {
			d.remove(col.cache)
		}
		col.slots, col.mapLive = nil, 0
		col.mapGen++
	}
	d.evictGen++
	d.lru.Init()
	d.pmBytes = 0
	d.pm.Pointers = 0
	d.chunksAt = d.chunksAt[:0]
	d.attrsAt = d.attrsAt[:0]
}

// Absorb merges sh — a partition worker's directory, filled at local rows
// — into d at rowOffset (>= 0); its tuple starts must continue d's. Where
// d lacks the half at a chunk-aligned offset, a shard half is handed over
// by pointer, otherwise copied as one run per chunk. A cached column
// merges whole or not at all (a partial one could not serve a cache scan);
// otherwise the budgets decide what survives exactly as if every position
// were recorded and every value put in ascending column and row order.
// The shard must not be used afterwards.
func (d *Dir) Absorb(sh *Dir, rowOffset int) {
	if sh == nil || rowOffset < 0 {
		return
	}
	if skip := len(d.starts) - rowOffset; skip >= 0 && skip < len(sh.starts) {
		d.starts = append(d.starts, sh.starts[skip:]...)
	}
	aligned, shift := rowOffset%ChunkRows == 0, rowOffset/ChunkRows
	for a := 0; a < len(sh.cols) && a < d.numAttrs; a++ {
		if sh.cols[a].mapLive == 0 {
			continue
		}
		cu := d.Cursor(a)
		for idx, s := range sh.cols[a].slots {
			if s == nil || s.n == 0 {
				continue
			}
			if aligned && d.adoptOffs(s, a, idx+shift) {
				continue
			}
			cu.recordRun(rowOffset+idx*ChunkRows, s.Offs, s.n == ChunkRows)
		}
	}
	for col := range sh.cols {
		if src := sh.cols[col].cache; src != nil {
			d.absorbColumn(sh.cols[col].slots, src, rowOffset)
		}
	}
}

// absorbColumn merges one shard column's segments into d at rowOffset.
func (d *Dir) absorbColumn(segs []*Slot, src *entry, rowOffset int) {
	dst := d.View(src.col, src.typ).e
	if dst == nil || dst.typ != src.typ {
		return
	}
	last, add, delta := -1, 0, int64(0)
	for idx, s := range segs {
		if s == nil || s.Seg == nil || s.Seg.n == 0 {
			continue
		}
		last = idx*ChunkRows + s.Seg.last()
		base := rowOffset + idx*ChunkRows
		if !d.anyCached(src.col, base, ChunkRows) {
			add += s.Seg.n
			delta += s.Seg.bytes
			continue
		}
		s.Seg.each(func(r int) {
			if !d.cached(src.col, base+r) {
				add++
				delta += s.Seg.valueBytes(src.typ, r)
			}
		})
	}
	w := (rowOffset+last)/64 + 1
	if delta += dst.bitmapGrowth(w); add == 0 || !d.makeCacheRoom(delta, dst) {
		return
	}
	for idx, s := range segs {
		if s == nil || s.Seg == nil {
			continue
		}
		base := rowOffset + idx*ChunkRows
		if base%ChunkRows == 0 {
			if ds := d.slot(src.col, base/ChunkRows); ds.Seg == nil {
				ds.Seg = s.Seg
				continue
			}
		}
		// One run into each destination chunk the shard chunk spans.
		for lo := 0; lo < ChunkRows; {
			at := base + lo
			hi := min(ChunkRows, lo+ChunkRows-at%ChunkRows)
			if bitRangeAnySet(s.Seg.Present[:], lo, hi-lo) {
				ds := d.slot(src.col, at/ChunkRows)
				if ds.Seg == nil {
					ds.Seg = newSegment(src.typ)
				}
				ds.Seg.fill(s.Seg, lo, hi, at%ChunkRows-lo, src.typ)
			}
			lo = hi
		}
	}
	d.charge(dst, add, w, delta)
}

// Install places a decoded slot half — offs, or sg of typ values — into d,
// the unbudgeted directory a sidecar decoder fills for Absorb. It reports
// false, changing nothing, for a column out of range, a malformed or
// mistyped half, or one the slot has. Offsets of rows without a tuple
// start and NULL bits without a present bit are cleared, so d keeps its
// invariants whatever the bytes were.
func (d *Dir) Install(col, idx int, offs []uint32, typ datum.Type, sg *Segment) bool {
	if col < 0 || col >= d.numAttrs || idx < 0 || offs != nil && len(offs) != ChunkRows ||
		sg != nil && (!sg.valid(typ) || d.cols[col].cache != nil && d.cols[col].cache.typ != typ) {
		return false
	}
	if s := d.at(col, idx); s != nil && (offs != nil && s.Offs != nil || sg != nil && s.Seg != nil) {
		return false
	}
	if offs != nil {
		for r := max(len(d.starts)-idx*ChunkRows, 0); r < ChunkRows; r++ {
			offs[r] = NoPosition
		}
		if n := countValid(offs); n > 0 {
			s := d.slot(col, idx)
			s.Offs, s.n = offs, n
			d.attachMap(s)
			d.pm.Pointers += int64(n)
		}
	}
	if sg != nil {
		for w := range sg.Nulls {
			sg.Nulls[w] &= sg.Present[w]
		}
		sg.n, sg.bytes = 0, 0
		sg.each(func(r int) { sg.n, sg.bytes = sg.n+1, sg.bytes+sg.valueBytes(typ, r) })
		if sg.n > 0 {
			e := d.View(col, typ).e
			d.slot(col, idx).Seg = sg
			w := (idx*ChunkRows+sg.last())/64 + 1
			d.charge(e, sg.n, w, sg.bytes+e.bitmapGrowth(w))
		}
	}
	return true
}
