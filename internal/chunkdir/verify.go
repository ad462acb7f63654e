package chunkdir

import "fmt"

// Verify checks the directory's invariants — every slot and counter
// against a recount, and both budgets — and returns the first violation.
// Tests and fuzzers call it on directories built from random schedules or
// untrusted bytes.
func (d *Dir) Verify() error {
	var pmBytes, pointers, cacheBytes int64
	halves, cached := 0, 0
	for col := range d.cols {
		c := &d.cols[col]
		live, n, last, values := 0, 0, -1, int64(0)
		for idx, s := range c.slots {
			if s == nil {
				continue
			}
			if s.col != col || s.idx != idx || s.Offs == nil && s.Seg == nil {
				return fmt.Errorf("slot (%d,%d): keyed (%d,%d) or empty", col, idx, s.col, s.idx)
			}
			if s.Offs != nil {
				live++
				if len(s.Offs) != ChunkRows || countValid(s.Offs) != s.n || s.elem == nil ||
					idx >= len(d.attrsAt) || searchAttr(d.attrsAt[idx], int32(col)) == len(d.attrsAt[idx]) {
					return fmt.Errorf("slot (%d,%d): map half miscounted or unlisted", col, idx)
				}
				pmBytes += mapSlotBytes
				pointers += int64(s.n)
			}
			if sg := s.Seg; sg != nil {
				e := c.cache
				rows, vbytes := 0, int64(0)
				if e != nil && sg.valid(e.typ) {
					sg.each(func(r int) { rows, vbytes = rows+1, vbytes+sg.valueBytes(e.typ, r) })
				}
				for w := range sg.Nulls {
					if sg.Nulls[w]&^sg.Present[w] != 0 {
						rows = -1
					}
				}
				if e == nil || !sg.valid(e.typ) || rows != sg.n || vbytes != sg.bytes {
					return fmt.Errorf("slot (%d,%d): segment uncached, mistyped or miscounted", col, idx)
				}
				if rows > 0 {
					last = idx*ChunkRows + sg.last()
				}
				n += rows
				values += vbytes
			}
		}
		halves += live
		if live != c.mapLive {
			return fmt.Errorf("column %d: %d map halves, counted %d", col, live, c.mapLive)
		}
		if e := c.cache; e != nil {
			cached++
			if e.col != col || e.elem == nil || e.n != n || e.words < (last+64)/64 ||
				e.bytes != entryOverhead+int64(16*e.words)+values {
				return fmt.Errorf("column %d: entry n=%d words=%d bytes=%d, recount n=%d last=%d values=%d",
					col, e.n, e.words, e.bytes, n, last, values)
			}
			cacheBytes += e.bytes
		}
	}
	switch {
	case halves != d.lru.Len() || pmBytes != d.pmBytes || pointers != d.pm.Pointers:
		return fmt.Errorf("map: %d halves (LRU %d), bytes %d/%d, pointers %d/%d",
			halves, d.lru.Len(), pmBytes, d.pmBytes, pointers, d.pm.Pointers)
	case cacheBytes != d.cacheBytes || cached != d.cacheLRU.Len():
		return fmt.Errorf("cache: bytes %d/%d, %d columns (LRU %d)", cacheBytes, d.cacheBytes, cached, d.cacheLRU.Len())
	case d.pmBudget > 0 && d.pmBytes > d.pmBudget || d.cacheBudget > 0 && d.cacheBytes > d.cacheBudget:
		return fmt.Errorf("over budget: map %d/%d, cache %d/%d", d.pmBytes, d.pmBudget, d.cacheBytes, d.cacheBudget)
	}
	return nil
}
