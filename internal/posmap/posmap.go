// Package posmap implements the adaptive positional map of the NoDB paper
// (§4.2): a byte-budgeted, incrementally populated index of attribute
// positions inside a raw file, used to avoid re-tokenizing tuples on every
// query.
//
// Layout. Tuple start offsets (the "end of line" map — what the paper's
// cache-only variant keeps as its minimal map) are stored densely as int64
// per tuple. Per-attribute positions are stored as uint32 offsets relative
// to the tuple start, vertically partitioned into fixed-size chunks of
// tuples (default 1024, sized to sit comfortably in CPU caches). A chunk of
// one attribute is the unit of budget accounting and LRU eviction. This
// realizes the paper's "collection of chunks, partitioned
// vertically and horizontally": the horizontal dimension is which
// attributes have chunks at all, the vertical dimension is the tuple range
// each chunk covers.
//
// Population is run-wise. A position enters a chunk in exactly one way
// (chunk.set / chunk.setRun); what differs is how callers amortize finding
// the chunk: a sequential scan records the run of attributes it tokenized
// for one tuple through a Writer (chunks resolved once per ChunkRows rows),
// bulk producers record runs of consecutive rows of one attribute through
// Cursor.RecordRun (a memmove into an empty chunk), and a parallel scan's
// shards merge chunk by chunk (AbsorbShard: a pointer handover when the row
// offset is chunk-aligned). Cursor.Record and Map.Record are the
// one-element case for sparse writers.
//
// A Map is not safe for concurrent use; the engine serializes access per
// table, mirroring the per-backend structure of the PostgresRaw prototype.
package posmap

import (
	"container/list"
	"fmt"
)

// DefaultChunkRows is the number of tuples covered by one chunk.
const DefaultChunkRows = 1024

// NoPosition marks an absent entry inside a chunk's offset array.
const noPosition = ^uint32(0)

// Options configure a Map.
type Options struct {
	// Budget is the maximum number of bytes the per-attribute position
	// chunks may occupy in memory; <= 0 means unlimited. Tuple start
	// offsets are the paper's minimal end-of-line map and are always kept.
	Budget int64
	// ChunkRows overrides the vertical partition size (default 1024).
	ChunkRows int
}

// Metrics counts the activity of a Map for instrumentation and benchmarks
// (Fig 3's x-axis is the number of recorded pointers).
type Metrics struct {
	Pointers  int64 // live in-memory position entries
	Evictions int64 // chunks evicted
}

// Map is the adaptive positional map for one raw file.
type Map struct {
	numAttrs  int
	chunkRows int
	budget    int64

	starts []int64 // tuple start offsets; index = row

	attrs []attrChunks // per attribute

	// chunksAt[i] counts the in-memory chunks covering chunk range i
	// across all attributes; it lets Nearest reject rows with no
	// positional information in O(1) instead of probing every attribute.
	chunksAt []int32

	// attrsAt[i] is the sorted list of attributes that have a chunk for
	// range i — the paper's "plain array [with] the order of attributes
	// in the map": Nearest finds the closest indexed attribute by binary
	// search instead of probing every attribute.
	attrsAt [][]int32

	lru       *list.List // of *chunk, front = most recent
	bytes     int64      // accounted bytes of live chunks
	curScan   int64      // stamp of the scan currently populating the map
	globalGen int64      // bumped on any chunk arrival/departure/BeginScan
	evictGen  int64      // bumped when a chunk leaves memory (validates Writer slots)

	m Metrics
}

type attrChunks struct {
	chunks []*chunk // index = chunk number (rows are dense); nil = not in memory
	live   int      // non-nil entries of chunks
	gen    int64    // bumped when this attribute's chunk set changes
}

// at returns the in-memory chunk idx, or nil.
func (ac *attrChunks) at(idx int) *chunk {
	if idx < len(ac.chunks) {
		return ac.chunks[idx]
	}
	return nil
}

type chunkKey struct{ attr, idx int }

type chunk struct {
	key  chunkKey
	offs []uint32 // len == chunkRows; noPosition marks absent entries
	n    int      // number of valid entries
	scan int64    // last scan that touched the chunk (eviction pinning)
	elem *list.Element
}

// set stores rel at slot and reports whether the slot was empty.
func (c *chunk) set(slot int, rel uint32) bool {
	fresh := c.offs[slot] == noPosition
	c.offs[slot] = rel
	if fresh {
		c.n++
	}
	return fresh
}

// setRun stores rels into the consecutive slots starting at slot, skipping
// noPosition holes, and returns how many of the slots were empty. valid is
// the number of non-hole entries in rels. An empty chunk takes the run as
// one memmove; otherwise entries merge one by one so existing positions
// under the run's holes survive.
func (c *chunk) setRun(slot int, rels []uint32, valid int) int {
	dst := c.offs[slot : slot+len(rels)]
	if c.n == 0 {
		copy(dst, rels)
		c.n = valid
		return valid
	}
	added := 0
	for i, rel := range rels {
		if rel == noPosition {
			continue
		}
		if dst[i] == noPosition {
			added++
		}
		dst[i] = rel
	}
	c.n += added
	return added
}

// countValid returns the number of non-hole entries of rels.
func countValid(rels []uint32) int {
	n := 0
	for _, rel := range rels {
		if rel != noPosition {
			n++
		}
	}
	return n
}

// chunkBytes is the accounted size of one chunk.
func (m *Map) chunkBytes() int64 { return int64(m.chunkRows)*4 + 64 }

// recorded accounts n newly stored entries.
func (m *Map) recorded(n int) { m.m.Pointers += int64(n) }

// New creates an empty positional map for a file with numAttrs attributes.
func New(numAttrs int, opts Options) *Map {
	cr := opts.ChunkRows
	if cr <= 0 {
		cr = DefaultChunkRows
	}
	return &Map{
		numAttrs:  numAttrs,
		chunkRows: cr,
		budget:    opts.Budget,
		attrs:     make([]attrChunks, numAttrs),
		lru:       list.New(),
	}
}

// NumAttrs returns the attribute count the map was created with.
func (m *Map) NumAttrs() int { return m.numAttrs }

// NumTuples returns how many tuple start offsets have been recorded.
func (m *Map) NumTuples() int { return len(m.starts) }

// Metrics returns a copy of the activity counters.
func (m *Map) Metrics() Metrics { return m.m }

// MemoryBytes returns the accounted size of the in-memory attribute chunks.
func (m *Map) MemoryBytes() int64 { return m.bytes }

// RecordTupleStart stores the absolute file offset of tuple row. Rows must
// be recorded in order without gaps; out-of-order calls are ignored unless
// they extend the map by exactly one row.
func (m *Map) RecordTupleStart(row int, off int64) {
	if row == len(m.starts) {
		m.starts = append(m.starts, off)
	}
}

// TupleStart returns the absolute offset of tuple row.
func (m *Map) TupleStart(row int) (int64, bool) {
	if row < 0 || row >= len(m.starts) {
		return 0, false
	}
	return m.starts[row], true
}

// Record stores the offset of attribute attr of tuple row, relative to the
// tuple start. Recording is best-effort: if the budget cannot accommodate a
// new chunk even after evictions, the entry is dropped silently — the map
// is an auxiliary structure and queries remain correct without it.
func (m *Map) Record(row, attr int, rel uint32) {
	if attr < 0 || attr >= m.numAttrs || row < 0 || rel == noPosition {
		return
	}
	c := m.chunkFor(attr, row/m.chunkRows, true)
	if c == nil {
		return
	}
	if c.set(row%m.chunkRows, rel) {
		m.recorded(1)
	}
	m.touch(c)
}

// Lookup returns the recorded relative offset of (row, attr).
func (m *Map) Lookup(row, attr int) (uint32, bool) {
	if attr < 0 || attr >= m.numAttrs || row < 0 {
		return 0, false
	}
	c := m.chunkFor(attr, row/m.chunkRows, false)
	if c == nil {
		return 0, false
	}
	rel := c.offs[row%m.chunkRows]
	if rel == noPosition {
		return 0, false
	}
	m.touch(c)
	return rel, true
}

// Nearest returns the indexed attribute closest to attr (by attribute
// distance) that has a recorded position for row, along with that position.
// It prefers exact hits, then smaller distances, then lower attributes on
// ties. This is the lookup the paper describes for incremental parsing:
// "jump to the 8th attribute and parse it until it finds the 9th".
func (m *Map) Nearest(row, attr int) (foundAttr int, rel uint32, ok bool) {
	if row < 0 {
		return 0, 0, false
	}
	ci := row / m.chunkRows
	if ci >= len(m.chunksAt) || m.chunksAt[ci] == 0 {
		return 0, 0, false // no positional information anywhere in range
	}
	if rel, ok := m.Lookup(row, attr); ok {
		return attr, rel, true
	}
	// Walk the range's attribute order array outward from attr. A chunk
	// can exist without holding this particular row (partially filled
	// scans), so candidates are verified and probing is bounded.
	list := m.attrsAt[ci]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < int32(attr) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	left, right := lo-1, lo
	const maxProbes = 8
	for probes := 0; probes < maxProbes && (left >= 0 || right < len(list)); probes++ {
		var cand int32
		switch {
		case left < 0:
			cand = list[right]
			right++
		case right >= len(list):
			cand = list[left]
			left--
		case int32(attr)-list[left] <= list[right]-int32(attr):
			cand = list[left]
			left--
		default:
			cand = list[right]
			right++
		}
		if rel, ok := m.lookupQuiet(row, int(cand)); ok {
			return int(cand), rel, true
		}
	}
	return 0, 0, false
}

// lookupQuiet is Lookup without LRU movement (used by Nearest's probe loop
// so a navigation attempt does not reorder the LRU for chunks it merely
// inspected).
func (m *Map) lookupQuiet(row, attr int) (uint32, bool) {
	c := m.chunkFor(attr, row/m.chunkRows, false)
	if c == nil {
		return 0, false
	}
	rel := c.offs[row%m.chunkRows]
	if rel == noPosition {
		return 0, false
	}
	return rel, true
}

// ChunkRows returns the vertical partition height the map was created with.
func (m *Map) ChunkRows() int { return m.chunkRows }

// Starts returns the recorded tuple-start offsets (index = row). The slice
// aliases the live map: callers serialize it under the table lock and must
// not retain or mutate it.
func (m *Map) Starts() []int64 { return m.starts }

// ForEachPointer calls fn for every in-memory recorded position of attr, in
// ascending row order. Sidecar checkpointing walks the map through this;
// restore goes back in through Cursor.RecordRun, so budgets and eviction
// still govern what lands.
func (m *Map) ForEachPointer(attr int, fn func(row int, rel uint32)) {
	if attr < 0 || attr >= m.numAttrs {
		return
	}
	for idx, c := range m.attrs[attr].chunks {
		if c == nil {
			continue
		}
		base := idx * m.chunkRows
		for slot, rel := range c.offs {
			if rel != noPosition {
				fn(base+slot, rel)
			}
		}
	}
}

// IndexedAttrs returns the sorted list of attributes that currently have at
// least one in-memory chunk — the paper's "plain array [with] the order of
// attributes in the map".
func (m *Map) IndexedAttrs() []int {
	var out []int
	for a := range m.attrs {
		if m.attrs[a].live > 0 {
			out = append(out, a)
		}
	}
	return out
}

// chunkFor returns the chunk for (attr, idx), optionally creating it.
func (m *Map) chunkFor(attr, idx int, create bool) *chunk {
	if c := m.attrs[attr].at(idx); c != nil {
		return c
	}
	if !create || !m.makeRoom() {
		return nil
	}
	c := &chunk{key: chunkKey{attr, idx}, offs: make([]uint32, m.chunkRows)}
	// Fill with noPosition by doubling copies (memmove, not a store loop).
	c.offs[0] = noPosition
	for n := 1; n < len(c.offs); n *= 2 {
		copy(c.offs[n:], c.offs[:n])
	}
	m.attach(c)
	return c
}

// attach brings c (keyed, room already made) into memory as the most
// recently used chunk. attach / detach maintain the per-range chunk counts,
// the per-range attribute order arrays and the generation stamps that
// validate cursor and writer fast paths.
func (m *Map) attach(c *chunk) {
	attr, idx := c.key.attr, c.key.idx
	ac := &m.attrs[attr]
	for len(ac.chunks) <= idx {
		ac.chunks = append(ac.chunks, nil)
	}
	ac.chunks[idx] = c
	ac.live++
	c.elem = m.lru.PushFront(c)
	m.bytes += m.chunkBytes()
	for len(m.chunksAt) <= idx {
		m.chunksAt = append(m.chunksAt, 0)
		m.attrsAt = append(m.attrsAt, nil)
	}
	m.chunksAt[idx]++
	m.attrsAt[idx] = insortAttr(m.attrsAt[idx], int32(attr))
	ac.gen++
	m.globalGen++
}

// detach removes c from memory (counted as an eviction).
func (m *Map) detach(c *chunk) {
	attr, idx := c.key.attr, c.key.idx
	ac := &m.attrs[attr]
	m.lru.Remove(c.elem)
	ac.chunks[idx] = nil
	ac.live--
	m.bytes -= m.chunkBytes()
	m.m.Pointers -= int64(c.n)
	m.m.Evictions++
	if idx < len(m.chunksAt) && m.chunksAt[idx] > 0 {
		m.chunksAt[idx]--
		m.attrsAt[idx] = removeAttr(m.attrsAt[idx], int32(attr))
	}
	ac.gen++
	m.globalGen++
	m.evictGen++
}

// insortAttr inserts a into the sorted list (no-op when present).
func insortAttr(list []int32, a int32) []int32 {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == a {
		return list
	}
	list = append(list, 0)
	copy(list[lo+1:], list[lo:])
	list[lo] = a
	return list
}

// removeAttr deletes a from the sorted list if present.
func removeAttr(list []int32, a int32) []int32 {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == a {
		copy(list[lo:], list[lo+1:])
		return list[:len(list)-1]
	}
	return list
}

// makeRoom evicts least-recently-used chunks until one more chunk fits in
// the budget. Chunks the current scan has touched are pinned: evicting
// them would make a sequential scan cannibalize its own recordings and
// churn forever; instead, when only pinned chunks remain, recording simply
// stops for the rest of the scan and the map keeps a stable subset —
// matching the paper's observation that a partial map yields stable
// performance. Returns false when no room can be made.
func (m *Map) makeRoom() bool {
	if m.budget <= 0 {
		return true
	}
	if m.chunkBytes() > m.budget {
		return false
	}
	el := m.lru.Back()
	for m.bytes+m.chunkBytes() > m.budget {
		// Find the least recently used chunk not pinned by this scan.
		for el != nil && el.Value.(*chunk).scan == m.curScan {
			el = el.Prev()
		}
		if el == nil {
			return false
		}
		victim := el.Value.(*chunk)
		el = el.Prev()
		m.detach(victim)
	}
	return true
}

// BeginScan marks the start of a scan; chunks touched from here on are
// exempt from eviction until the next BeginScan.
func (m *Map) BeginScan() {
	m.curScan++
	m.globalGen++ // unpinning may let previously failed creations succeed
}

// touch marks a chunk most-recently used and pins it for the current scan.
func (m *Map) touch(c *chunk) {
	c.scan = m.curScan
	m.lru.MoveToFront(c.elem)
}

// AbsorbShard merges a worker shard — a private Map populated with
// partition-local row numbers during a parallel partitioned scan — into m,
// shifting every row by rowOffset (>= 0). Tuple start offsets in the shard
// are already absolute file offsets and must be contiguous with m's (shards
// merge in partition order). The merge is O(chunks): a shard chunk that
// lands exactly on a free chunk of m (chunk-aligned rowOffset, equal
// ChunkRows) is handed over by pointer, any other is recorded as one run
// (Cursor.RecordRun). Either way m's budget and eviction policy govern what
// survives exactly as if every position had been recorded individually in
// ascending attribute and row order. The shard must not be used afterwards.
func (m *Map) AbsorbShard(sh *Map, rowOffset int) {
	if sh == nil || rowOffset < 0 {
		return
	}
	// RecordTupleStart semantics for the whole slice: only rows that extend
	// m without a gap are taken.
	if skip := len(m.starts) - rowOffset; skip >= 0 && skip < len(sh.starts) {
		m.starts = append(m.starts, sh.starts[skip:]...)
	}
	aligned := sh.chunkRows == m.chunkRows && rowOffset%m.chunkRows == 0
	shift := rowOffset / m.chunkRows
	for a := 0; a < len(sh.attrs) && a < m.numAttrs; a++ {
		if sh.attrs[a].live == 0 {
			continue
		}
		cu := m.Cursor(a)
		for idx, c := range sh.attrs[a].chunks {
			if c == nil || c.n == 0 {
				continue
			}
			if aligned && m.adopt(c, a, idx+shift) {
				continue
			}
			cu.recordRun(rowOffset+idx*sh.chunkRows, c.offs, c.n == len(c.offs))
		}
	}
}

// adopt installs c — a chunk of an absorbed shard — as m's chunk (attr,
// idx). It reports false, leaving m untouched, when m already holds that
// chunk and the entries must merge instead. A budget that cannot make room
// drops the chunk, as it would refuse to create one.
func (m *Map) adopt(c *chunk, attr, idx int) bool {
	if m.attrs[attr].at(idx) != nil {
		return false
	}
	if m.makeRoom() {
		c.key = chunkKey{attr, idx}
		c.scan = m.curScan
		m.attach(c)
		m.recorded(c.n)
	}
	return true
}

// Drop discards everything the map holds — tuple starts and per-attribute
// positions — used when the file changes in place, shrinks or is rewritten
// (paper §4.5: in-place updates may require dropping and recreating the
// map; the map "may be dropped fully or partly at any time without any
// loss of critical information"). The map stays usable.
func (m *Map) Drop() {
	m.starts = m.starts[:0]
	for a := range m.attrs {
		m.attrs[a].chunks = nil
		m.attrs[a].live = 0
		m.attrs[a].gen++
	}
	m.evictGen++
	m.lru.Init()
	m.bytes = 0
	m.m.Pointers = 0
	m.chunksAt = m.chunksAt[:0]
	m.attrsAt = m.attrsAt[:0]
}

// String summarizes the map for debugging.
func (m *Map) String() string {
	return fmt.Sprintf("posmap{tuples=%d attrs=%d pointers=%d bytes=%d}",
		len(m.starts), m.numAttrs, m.m.Pointers, m.bytes)
}

// Cursor is a scan-lifetime accessor for one attribute that exploits the
// sequential row order of in-situ scans: the chunk map lookup and LRU
// touch happen once per chunk transition (every ChunkRows rows) instead of
// once per value. Behaviour matches Lookup/Record; a chunk evicted while
// the cursor points at it keeps serving its (still correct) positions and
// silently drops further writes, exactly like the map's best-effort
// contract. Never retain a cursor across queries.
type Cursor struct {
	m    *Map
	attr int
	idx  int // current chunk index, -1 = none
	c    *chunk
	gen  int64 // attribute generation at the last seek

	// Failed-creation cache: while nothing has entered or left the map
	// (and no new scan started), a failed chunk creation cannot start
	// succeeding, so Record can skip the eviction walk entirely.
	failIdx int
	failGen int64
}

// Cursor returns a sequential accessor for attr.
func (m *Map) Cursor(attr int) *Cursor {
	return &Cursor{m: m, attr: attr, idx: -1, failIdx: -1, failGen: -1}
}

// seek positions the cursor on row's chunk (creating it if create). The
// fast path is valid while the map generation is unchanged — no chunk has
// entered or left memory, so the cached pointer (including a cached "no
// chunk here" result) is still accurate.
func (cu *Cursor) seek(row int, create bool) bool {
	idx := row / cu.m.chunkRows
	if idx == cu.idx && cu.gen == cu.m.attrs[cu.attr].gen && (cu.c != nil || !create) {
		return cu.c != nil
	}
	if create && idx == cu.failIdx && cu.failGen == cu.m.globalGen {
		return false
	}
	cu.c = cu.m.chunkFor(cu.attr, idx, create)
	cu.idx = idx
	cu.gen = cu.m.attrs[cu.attr].gen
	if cu.c != nil {
		cu.c.scan = cu.m.curScan
	} else if create {
		cu.failIdx = idx
		cu.failGen = cu.m.globalGen
	}
	return cu.c != nil
}

// Get returns the recorded relative offset of (row, attr).
func (cu *Cursor) Get(row int) (uint32, bool) {
	if cu.attr < 0 || cu.attr >= cu.m.numAttrs || row < 0 {
		return 0, false
	}
	if !cu.seek(row, false) {
		return 0, false
	}
	rel := cu.c.offs[row%cu.m.chunkRows]
	if rel == noPosition {
		return 0, false
	}
	return rel, true
}

// Record stores a relative offset (best effort, like Map.Record).
func (cu *Cursor) Record(row int, rel uint32) {
	if cu.attr < 0 || cu.attr >= cu.m.numAttrs || row < 0 || rel == noPosition {
		return
	}
	if !cu.seek(row, true) {
		return
	}
	if cu.c.set(row%cu.m.chunkRows, rel) {
		cu.m.recorded(1)
	}
}

// RecordRun stores rels[i] as the position of row+i for consecutive rows —
// the bulk form of Record for producers that hold a column of positions
// (sidecar restore, shard merge). noPosition entries are holes and skipped.
// The result, including which chunks a budget admits, is exactly that of
// calling Record for each entry in order; the cost is one chunk resolution
// and one memmove (or merge loop, when the chunk already holds entries) per
// ChunkRows rows.
func (cu *Cursor) RecordRun(row int, rels []uint32) { cu.recordRun(row, rels, false) }

// recordRun is RecordRun; dense promises rels has no holes, sparing the
// count pass.
func (cu *Cursor) recordRun(row int, rels []uint32, dense bool) {
	if cu.attr < 0 || cu.attr >= cu.m.numAttrs || row < 0 {
		return
	}
	cr := cu.m.chunkRows
	for len(rels) > 0 {
		slot := row % cr
		n := min(len(rels), cr-slot)
		part := rels[:n]
		valid := n
		if !dense {
			valid = countValid(part)
		}
		// A part of nothing but holes must not create (or pin) a chunk.
		if valid > 0 && cu.seek(row, true) {
			cu.m.recorded(cu.c.setRun(slot, part, valid))
		}
		row += n
		rels = rels[n:]
	}
}

// Writer is the recorder of one sequential scan: it stores the run of
// attribute positions a scan tokenized for one tuple (RecordRow) straight
// into the current chunk of every attribute involved. Because a scan visits
// rows in order, the chunk pointers, their eviction pins and the
// failed-creation cache are resolved once per ChunkRows rows per attribute
// instead of once per position; steady state is one slot store per
// position. Behaviour (what is stored, which chunks a budget admits or
// refuses, in which order) is exactly that of Cursor.Record per position.
// Create the writer after BeginScan and never retain it across scans.
type Writer struct {
	m        *Map
	idx      int          // chunk number the slots are resolved for
	base     int          // first row of chunk idx
	evictGen int64        // m.evictGen when the slots were last reset
	slots    []writerSlot // per attribute
}

type writerSlot struct {
	c *chunk // chunk (attr, idx), pinned for this scan; nil = unresolved or refused
	// Failed-creation cache: while nothing has entered or left the map (and
	// no new scan started), a refused chunk creation cannot start
	// succeeding, so a position bound for it costs two compares.
	failGen int64
}

// Writer returns a run recorder for the scan begun by the last BeginScan.
func (m *Map) Writer() *Writer {
	w := &Writer{m: m, slots: make([]writerSlot, m.numAttrs)}
	w.reset(-1)
	return w
}

// reset re-targets every slot at chunk idx, unresolved.
func (w *Writer) reset(idx int) {
	w.idx = idx
	w.base = idx * w.m.chunkRows
	w.evictGen = w.m.evictGen
	for i := range w.slots {
		w.slots[i] = writerSlot{failGen: -1}
	}
}

// resolve finds or creates the chunk behind slot s of attr and pins it.
func (w *Writer) resolve(attr int, s *writerSlot) *chunk {
	m := w.m
	if s.failGen == m.globalGen {
		return nil
	}
	c := m.chunkFor(attr, w.idx, true)
	if c == nil {
		s.failGen = m.globalGen
		return nil
	}
	c.scan = m.curScan
	s.c = c
	return c
}

// RecordRow stores rels[i] as the position of attribute attr+i of tuple
// row (best effort, like Record).
//
//nodb:hotpath
func (w *Writer) RecordRow(row, attr int, rels []uint32) {
	m := w.m
	if row < 0 || attr < 0 || attr >= len(w.slots) {
		return
	}
	if attr+len(rels) > len(w.slots) {
		rels = rels[:len(w.slots)-attr]
	}
	slot := row - w.base
	if uint(slot) >= uint(m.chunkRows) || w.evictGen != m.evictGen {
		// Chunk transition — or a chunk left memory, so any slot may point
		// at a detached chunk: resolve afresh.
		w.reset(row / m.chunkRows)
		slot = row - w.base
	}
	added := 0
	slots := w.slots[attr : attr+len(rels)]
	for i, rel := range rels {
		if rel == noPosition {
			continue
		}
		c := slots[i].c
		if c == nil {
			if c = w.resolve(attr+i, &slots[i]); c == nil {
				continue
			}
		}
		if c.set(slot, rel) {
			added++
		}
	}
	m.recorded(added)
}
