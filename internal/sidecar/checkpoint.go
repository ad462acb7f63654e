package sidecar

import (
	"fmt"
	"os"
	"sort"

	"nodb/internal/format"
	"nodb/internal/iofault"
)

// encodeState serializes st's adaptive state into a sidecar payload.
// Returns nil when there is nothing worth persisting — no fingerprint has
// been captured, so there is no file version to validate against.
// The caller holds st's table lock (shared suffices: everything read here
// mutates only under the exclusive hold, or carries its own lock).
func encodeState(st *format.State, maxBytes int64) []byte {
	if st.FP.Zero() {
		return nil
	}
	var p enc

	var b enc
	encodeFingerprint(&b, st.FP)
	b.i64(st.Rows.Load())
	p.section(tagMeta, b.b)

	b = enc{}
	b.str(st.Tbl.Name)
	b.u32(uint32(len(st.Tbl.Columns)))
	for _, c := range st.Tbl.Columns {
		b.str(c.Name)
		b.u8(uint8(c.Type))
	}
	p.section(tagSchema, b.b)

	b = enc{}
	b.u32(uint32(len(st.ColAccess)))
	for i := range st.ColAccess {
		b.i64(st.ColAccess[i].Load())
	}
	p.section(tagAccess, b.b)

	if st.St != nil {
		if cols := st.St.Ordinals(); len(cols) > 0 {
			b = enc{}
			b.i64(st.St.RowCount())
			b.u32(uint32(len(cols)))
			for _, c := range cols {
				cs := st.St.Col(c)
				b.u32(uint32(c))
				b.u8(uint8(cs.Type))
				b.i64(cs.Count)
				b.i64(cs.Nulls)
				b.datum(cs.Min)
				b.datum(cs.Max)
				b.f64(cs.Distinct)
				bounds := cs.HistogramBounds()
				b.u32(uint32(len(bounds)))
				for _, x := range bounds {
					b.f64(x)
				}
			}
			p.section(tagStats, b.b)
		}
	}

	d := st.Dir
	if starts := d.Starts(); len(starts) > 0 {
		b = enc{}
		b.u64(uint64(len(starts)))
		for _, s := range starts {
			b.i64(s)
		}
		if p.trySection(tagStarts, b.b, maxBytes) {
			for col := range st.Types {
				for idx, s := range d.Slots(col) {
					if s != nil && s.Offs != nil {
						b = enc{}
						b.u32(uint32(col))
						b.u32(uint32(idx))
						b.u8(slotOffs)
						for _, rel := range s.Offs {
							b.u32(rel)
						}
						p.trySection(tagSlot, b.b, maxBytes)
					}
				}
			}
		}
	}

	// A column is cached as its schema type; its segments are written all
	// or none.
	for _, col := range hotColumns(st) {
		typ := st.Types[col]
		var c enc
		for idx, s := range d.Slots(col) {
			if s == nil || s.Seg == nil {
				continue
			}
			b = enc{}
			b.u32(uint32(col))
			b.u32(uint32(idx))
			b.u8(slotSeg)
			b.u8(uint8(typ))
			for _, w := range s.Seg.Present {
				b.u64(w)
			}
			for _, w := range s.Seg.Nulls {
				b.u64(w)
			}
			for _, v := range s.Seg.Ints {
				b.i64(v)
			}
			for _, v := range s.Seg.Floats {
				b.f64(v)
			}
			for _, v := range s.Seg.Strs {
				b.str(v)
			}
			c.section(tagSlot, b.b)
		}
		if maxBytes <= 0 || int64(len(p.b)+len(c.b)) <= maxBytes {
			p.b = append(p.b, c.b...)
		}
	}
	return p.b
}

// hotColumns orders the cached columns by descending access count (ties
// by ordinal) — the workload-driven materialization order: under a byte
// budget the most-queried columns persist first.
func hotColumns(st *format.State) []int {
	cols := st.Dir.CachedColumns()
	sort.Slice(cols, func(i, j int) bool {
		ai, aj := int64(0), int64(0)
		if cols[i] < len(st.ColAccess) {
			ai = st.ColAccess[cols[i]].Load()
		}
		if cols[j] < len(st.ColAccess) {
			aj = st.ColAccess[cols[j]].Load()
		}
		if ai != aj {
			return ai > aj
		}
		return cols[i] < cols[j]
	})
	return cols
}

func encodeFingerprint(e *enc, fp format.Fingerprint) {
	e.i64(fp.Size)
	e.i64(fp.ModTime.UnixNano())
	e.u64(fp.Head)
	e.u64(fp.Tail)
	e.i64(fp.TailOff)
}

// writeAtomic writes a complete sidecar file (header + payload) to a temp
// file, syncs it, and renames it over path. On a rename failure the temp
// file is left behind — exactly the on-disk state a crash between write
// and rename produces; the loader never reads temp files and a later
// checkpoint overwrites it. Returns the bytes written.
func writeAtomic(path, magic string, payload []byte) (int, error) {
	var h enc
	h.b = append(h.b, magic...)
	h.u32(fileVersion)
	h.u64(uint64(len(payload)))
	h.u64(checksum(payload))

	tmp := path + ".tmp"
	f, err := iofault.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("sidecar: create %s: %w", tmp, err)
	}
	werr := func() error {
		if _, err := f.Write(h.b); err != nil {
			return err
		}
		if _, err := f.Write(payload); err != nil {
			return err
		}
		return f.Sync()
	}()
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return 0, fmt.Errorf("sidecar: write %s: %w", tmp, werr)
	}
	if err := iofault.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("sidecar: rename %s: %w", path, err)
	}
	return len(h.b) + len(payload), nil
}

// encodeJournal renders one self-checksummed append-journal record
// carrying the raw file's post-append fingerprint.
func encodeJournal(fp format.Fingerprint) []byte {
	var body enc
	encodeFingerprint(&body, fp)
	var rec enc
	rec.u32(journalTag)
	rec.u32(uint32(len(body.b)))
	rec.u64(checksum(body.b))
	rec.b = append(rec.b, body.b...)
	return rec.b
}
