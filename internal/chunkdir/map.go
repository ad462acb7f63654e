package chunkdir

// The map halves: recording, navigation, budget and pinning.

// MapMetrics returns a copy of the map's activity counters.
func (d *Dir) MapMetrics() MapMetrics { return d.pm }

// MapBytes returns the accounted size of the in-memory map halves.
func (d *Dir) MapBytes() int64 { return d.pmBytes }

// NumTuples returns how many tuple start offsets have been recorded.
func (d *Dir) NumTuples() int { return len(d.starts) }

// RecordTupleStart stores the absolute file offset of tuple row. Rows must
// be recorded in order without gaps; out-of-order calls are ignored unless
// they extend the map by exactly one row.
func (d *Dir) RecordTupleStart(row int, off int64) {
	if row == len(d.starts) {
		d.starts = append(d.starts, off)
	}
}

// Nearest returns the column closest to attr (by attribute distance) with
// a recorded position for row, along with that position. It prefers exact
// hits (touching their slot in the LRU), then smaller distances, then lower
// columns on ties. This is the lookup the paper describes for incremental
// parsing: "jump to the 8th attribute and parse it until it finds the 9th".
func (d *Dir) Nearest(row, attr int) (foundAttr int, rel uint32, ok bool) {
	if row < 0 || attr < 0 || attr >= d.numAttrs {
		return 0, 0, false
	}
	ci := row / ChunkRows
	if ci >= len(d.chunksAt) || d.chunksAt[ci] == 0 {
		return 0, 0, false // no positional information anywhere in range
	}
	if rel, ok := d.lookup(row, attr); ok {
		d.touch(d.at(attr, ci))
		return attr, rel, true
	}
	// Walk the range's attribute order array outward from attr — the
	// paper's "plain array [with] the order of attributes in the map". A
	// slot can exist without holding this row (partially filled scans), so
	// candidates are verified and probing is bounded.
	list := d.attrsAt[ci]
	lo := searchAttr(list, int32(attr))
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
		if rel, ok := d.lookup(row, int(cand)); ok {
			return int(cand), rel, true
		}
	}
	return 0, 0, false
}

// lookup returns the recorded offset of (row, attr) without LRU movement.
func (d *Dir) lookup(row, attr int) (uint32, bool) {
	s := d.at(attr, row/ChunkRows)
	if s == nil || s.Offs == nil {
		return 0, false
	}
	if rel := s.Offs[row%ChunkRows]; rel != NoPosition {
		return rel, true
	}
	return 0, false
}

// mapHalf returns slot (attr, idx) if it has a map half, optionally giving
// it one (subject to the budget).
func (d *Dir) mapHalf(attr, idx int, create bool) *Slot {
	if s := d.at(attr, idx); s != nil && s.Offs != nil {
		return s
	}
	if !create || !d.makeMapRoom() {
		return nil
	}
	s := d.slot(attr, idx)
	s.Offs = make([]uint32, ChunkRows)
	// Fill with NoPosition by doubling copies (memmove, not a store loop).
	s.Offs[0] = NoPosition
	for n := 1; n < len(s.Offs); n *= 2 {
		copy(s.Offs[n:], s.Offs[:n])
	}
	d.attachMap(s)
	return s
}

// adoptOffs hands src's map half to slot (attr, idx) of d, pinned by the
// current scan. It reports false, leaving d untouched, when that slot has
// a map half already and the entries must merge instead. A budget that
// cannot make room drops the half, as it would refuse to create one.
func (d *Dir) adoptOffs(src *Slot, attr, idx int) bool {
	if s := d.at(attr, idx); s != nil && s.Offs != nil {
		return false
	}
	if d.makeMapRoom() {
		s := d.slot(attr, idx)
		s.Offs, s.n, s.scan = src.Offs, src.n, d.curScan
		d.attachMap(s)
		d.pm.Pointers += int64(s.n)
	}
	return true
}

// attachMap makes s's (new) map half the most recently used. attachMap and
// detachMap maintain the per-chunk counts, the per-chunk attribute order
// arrays and the generation stamps that validate cursor and writer fast
// paths.
func (d *Dir) attachMap(s *Slot) {
	c := &d.cols[s.col]
	c.mapLive++
	c.mapGen++
	s.elem = d.lru.PushFront(s)
	d.pmBytes += mapSlotBytes
	for len(d.chunksAt) <= s.idx {
		d.chunksAt = append(d.chunksAt, 0)
		d.attrsAt = append(d.attrsAt, nil)
	}
	d.chunksAt[s.idx]++
	list := d.attrsAt[s.idx]
	if i := searchAttr(list, int32(s.col)); i == len(list) || list[i] != int32(s.col) {
		list = append(list, 0)
		copy(list[i+1:], list[i:])
		list[i] = int32(s.col)
		d.attrsAt[s.idx] = list
	}
	d.globalGen++
}

// detachMap evicts s's map half.
func (d *Dir) detachMap(s *Slot) {
	c := &d.cols[s.col]
	c.mapLive--
	c.mapGen++
	d.lru.Remove(s.elem)
	d.pmBytes -= mapSlotBytes
	d.pm.Pointers -= int64(s.n)
	d.pm.Evictions++
	d.chunksAt[s.idx]--
	list := d.attrsAt[s.idx]
	if i := searchAttr(list, int32(s.col)); i < len(list) && list[i] == int32(s.col) {
		d.attrsAt[s.idx] = append(list[:i], list[i+1:]...)
	}
	s.Offs, s.n, s.elem = nil, 0, nil
	d.prune(s)
	d.globalGen++
	d.evictGen++
}

// searchAttr returns the index of the first element of the sorted list
// that is >= a.
func searchAttr(list []int32, a int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// makeMapRoom evicts least-recently-used map halves until one more fits.
// Halves the current scan touched are pinned: when only they remain,
// recording stops for the rest of the scan and the map keeps a stable
// subset (the paper: a partial map yields stable performance). Returns
// false when no room can be made.
func (d *Dir) makeMapRoom() bool {
	if d.pmBudget <= 0 {
		return true
	}
	if mapSlotBytes > d.pmBudget {
		return false
	}
	el := d.lru.Back()
	for d.pmBytes+mapSlotBytes > d.pmBudget {
		for el != nil && el.Value.(*Slot).scan == d.curScan {
			el = el.Prev()
		}
		if el == nil {
			return false
		}
		victim := el.Value.(*Slot)
		el = el.Prev()
		d.detachMap(victim)
	}
	return true
}

// BeginScan marks the start of a scan; map halves touched from here on are
// exempt from eviction until the next BeginScan.
func (d *Dir) BeginScan() {
	d.curScan++
	d.globalGen++ // unpinning may let previously failed creations succeed
}

// touch marks s's map half most recently used and pins it for the scan.
func (d *Dir) touch(s *Slot) {
	s.scan = d.curScan
	d.lru.MoveToFront(s.elem)
}

// set stores rel at row r of s's map half and reports whether it was empty.
func (s *Slot) set(r int, rel uint32) bool {
	fresh := s.Offs[r] == NoPosition
	s.Offs[r] = rel
	if fresh {
		s.n++
	}
	return fresh
}

// setRun stores rels into the consecutive rows starting at r, skipping
// NoPosition holes, and returns how many of the rows were empty. valid is
// the number of non-hole entries in rels. An empty half takes the run as
// one memmove; otherwise entries merge one by one so existing positions
// under the run's holes survive.
func (s *Slot) setRun(r int, rels []uint32, valid int) int {
	dst := s.Offs[r : r+len(rels)]
	if s.n == 0 {
		copy(dst, rels)
		s.n = valid
		return valid
	}
	added := 0
	for i, rel := range rels {
		if rel == NoPosition {
			continue
		}
		if dst[i] == NoPosition {
			added++
		}
		dst[i] = rel
	}
	s.n += added
	return added
}

// countValid returns the number of non-hole entries of rels.
func countValid(rels []uint32) int {
	n := 0
	for _, rel := range rels {
		if rel != NoPosition {
			n++
		}
	}
	return n
}

// Cursor is a scan-lifetime accessor for one attribute's map halves: the
// slot lookup and pin happen once per chunk, not once per value. A half
// evicted under the cursor is re-resolved (a clean miss); a write the
// budget refuses is dropped. Create cursors after BeginScan; never retain
// one across scans.
type Cursor struct {
	d    *Dir
	attr int
	idx  int // current chunk, -1 = none
	s    *Slot
	gen  int64 // attribute generation at the last seek

	// Failed-creation cache: while nothing has entered or left the map
	// (and no new scan started), a failed creation cannot start
	// succeeding, so Record can skip the eviction walk entirely.
	failIdx int
	failGen int64
}

// Cursor returns a sequential accessor for attr.
func (d *Dir) Cursor(attr int) *Cursor {
	return &Cursor{d: d, attr: attr, idx: -1, failIdx: -1, failGen: -1}
}

// seek positions the cursor on row's slot (giving it a map half if
// create). The fast path is valid while the attribute generation is
// unchanged — no half has entered or left memory, so the cached pointer
// (including a cached "no half here") is still accurate.
func (cu *Cursor) seek(row int, create bool) bool {
	d := cu.d
	idx := row / ChunkRows
	if idx == cu.idx && cu.gen == d.cols[cu.attr].mapGen && (cu.s != nil || !create) {
		return cu.s != nil
	}
	if create && idx == cu.failIdx && cu.failGen == d.globalGen {
		return false
	}
	cu.s = d.mapHalf(cu.attr, idx, create)
	cu.idx = idx
	cu.gen = d.cols[cu.attr].mapGen
	if cu.s != nil {
		cu.s.scan = d.curScan
	} else if create {
		cu.failIdx = idx
		cu.failGen = d.globalGen
	}
	return cu.s != nil
}

// Get returns the recorded relative offset of (row, attr).
func (cu *Cursor) Get(row int) (uint32, bool) {
	if cu.attr < 0 || cu.attr >= cu.d.numAttrs || row < 0 || !cu.seek(row, false) {
		return 0, false
	}
	if rel := cu.s.Offs[row%ChunkRows]; rel != NoPosition {
		return rel, true
	}
	return 0, false
}

// Record stores the offset of attr in tuple row, relative to the tuple
// start (best effort: dropped when the budget cannot make room).
func (cu *Cursor) Record(row int, rel uint32) {
	if cu.attr < 0 || cu.attr >= cu.d.numAttrs || row < 0 || rel == NoPosition || !cu.seek(row, true) {
		return
	}
	if cu.s.set(row%ChunkRows, rel) {
		cu.d.pm.Pointers++
	}
}

// recordRun stores rels[i] as the position of row+i — one chunk
// resolution and one memmove (or merge loop, when the half already holds
// entries) per chunk; NoPosition entries are holes. dense promises rels
// has no holes, sparing the count pass. The result, including which
// halves a budget admits, is that of Record per entry in order.
func (cu *Cursor) recordRun(row int, rels []uint32, dense bool) {
	for len(rels) > 0 {
		r := row % ChunkRows
		n := min(len(rels), ChunkRows-r)
		part := rels[:n]
		valid := n
		if !dense {
			valid = countValid(part)
		}
		// A part of nothing but holes must not create (or pin) a half.
		if valid > 0 && cu.seek(row, true) {
			cu.d.pm.Pointers += int64(cu.s.setRun(r, part, valid))
		}
		row += n
		rels = rels[n:]
	}
}

// Writer is the recorder of one sequential scan: RecordRow stores the run
// of positions a scan tokenized for one tuple, resolving slot pointers,
// pins and failed creations once per chunk per attribute. What it stores,
// and which halves a budget admits, is exactly Cursor.Record per position.
// Create the writer after BeginScan; never retain it across scans.
type Writer struct {
	d        *Dir
	idx      int          // chunk the slots are resolved for
	base     int          // first row of chunk idx
	evictGen int64        // d.evictGen when the slots were last reset
	slots    []writerSlot // per attribute
}

type writerSlot struct {
	s *Slot // slot (attr, idx) with a map half, pinned; nil = unresolved or refused
	// Failed-creation cache, as the cursor's.
	failGen int64
}

// Writer returns a run recorder for the scan begun by the last BeginScan.
func (d *Dir) Writer() *Writer {
	w := &Writer{d: d, slots: make([]writerSlot, d.numAttrs)}
	w.reset(-1)
	return w
}

// reset re-targets every slot at chunk idx, unresolved.
func (w *Writer) reset(idx int) {
	w.idx = idx
	w.base = idx * ChunkRows
	w.evictGen = w.d.evictGen
	for i := range w.slots {
		w.slots[i] = writerSlot{failGen: -1}
	}
}

// resolve finds or creates the map half behind ws and pins it.
func (w *Writer) resolve(attr int, ws *writerSlot) *Slot {
	d := w.d
	if ws.failGen == d.globalGen {
		return nil
	}
	s := d.mapHalf(attr, w.idx, true)
	if s == nil {
		ws.failGen = d.globalGen
		return nil
	}
	s.scan = d.curScan
	ws.s = s
	return s
}

// RecordRow stores rels[i] as the position of attribute attr+i of tuple
// row (best effort, like Cursor.Record).
//
//nodb:hotpath
func (w *Writer) RecordRow(row, attr int, rels []uint32) {
	d := w.d
	if row < 0 || attr < 0 || attr >= len(w.slots) {
		return
	}
	if attr+len(rels) > len(w.slots) {
		rels = rels[:len(w.slots)-attr]
	}
	r := row - w.base
	if uint(r) >= ChunkRows || w.evictGen != d.evictGen {
		// Chunk transition — or a half left memory, so any slot may have
		// lost its map half: resolve afresh.
		w.reset(row / ChunkRows)
		r = row - w.base
	}
	added := 0
	slots := w.slots[attr : attr+len(rels)]
	for i, rel := range rels {
		if rel == NoPosition {
			continue
		}
		s := slots[i].s
		if s == nil {
			if s = w.resolve(attr+i, &slots[i]); s == nil {
				continue
			}
		}
		if s.set(r, rel) {
			added++
		}
	}
	d.pm.Pointers += int64(added)
}
