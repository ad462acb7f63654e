package sidecar

import (
	"bytes"
	"errors"
	"io/fs"
	"time"

	"nodb/internal/chunkdir"
	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/stats"
)

// fileData is a parsed sidecar file, before validation against the live
// table and raw file.
type fileData struct {
	fp   format.Fingerprint
	rows int64

	table    string
	colNames []string
	colTypes []byte

	access []int64

	statRows int64
	syns     map[int]*stats.Synopsis // by column

	starts []int64
	slots  []slotData

	journal []format.Fingerprint
}

// slotData is one decoded slot section: offs or seg is set.
type slotData struct {
	col, idx int
	offs     []uint32
	typ      datum.Type
	seg      *chunkdir.Segment
}

// errCorrupt marks a structurally invalid sidecar (bad magic, version,
// checksum, or section encoding) — the discard-and-start-cold path.
var errCorrupt = errors.New("sidecar: corrupt sidecar file")

// readFile reads path through the iofault seam and validates the header
// (magic, version, payload length, payload checksum). Returns the payload
// bytes; a missing file returns an fs.ErrNotExist-wrapping error, anything
// structurally wrong returns errCorrupt.
func readFile(path, magic string) ([]byte, error) {
	payload, _, err := readFileTail(path, magic)
	return payload, err
}

// readFileTail is readFile plus whatever bytes follow the payload (the
// append journal of a table sidecar).
func readFileTail(path, magic string) (payload, tail []byte, err error) {
	f, err := iofault.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// One read into a buffer sized from the file: growing it from empty
	// copied a checkpoint of a few MB about ten times over.
	var buf bytes.Buffer
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, nil, errCorrupt
	}
	return splitFile(buf.Bytes(), magic)
}

// splitFile validates raw's header and splits it into payload and tail.
func splitFile(raw []byte, magic string) (payload, tail []byte, err error) {
	if len(raw) < headerLen || string(raw[:8]) != magic {
		return nil, nil, errCorrupt
	}
	h := dec{b: raw, off: 8}
	if h.u32() != fileVersion {
		return nil, nil, errCorrupt
	}
	plen := h.u64()
	psum := h.u64()
	if plen > uint64(len(raw)-headerLen) {
		return nil, nil, errCorrupt
	}
	payload = raw[headerLen : headerLen+int(plen)]
	if checksum(payload) != psum {
		return nil, nil, errCorrupt
	}
	return payload, raw[headerLen+int(plen):], nil
}

// readSidecar reads and parses a table sidecar file.
func readSidecar(path string) (*fileData, error) {
	payload, tail, err := readFileTail(path, fileMagic)
	if err != nil {
		return nil, err
	}
	fd := &fileData{rows: -1, statRows: -1, syns: map[int]*stats.Synopsis{}}
	if !parsePayload(fd, payload) {
		return nil, errCorrupt
	}
	// Journal records follow the payload; a torn or garbled tail is
	// ignored (a crash mid-append must not poison the checkpoint).
	fd.journal = parseJournal(tail)
	return fd, nil
}

// parsePayload walks the tagged sections. Unknown tags are skipped.
// Returns false when any section is malformed.
func parsePayload(fd *fileData, payload []byte) bool {
	d := dec{b: payload}
	sawMeta, sawSchema := false, false
	for d.off < len(d.b) {
		tag := d.u8()
		blen := d.u64()
		body := d.bytes(int(blen))
		if d.bad {
			return false
		}
		s := dec{b: body}
		switch tag {
		case tagMeta:
			fd.fp = decodeFingerprint(&s)
			fd.rows = s.i64()
			fd.statRows = s.i64()
			sawMeta = true
		case tagSchema:
			fd.table = s.str()
			n := int(s.u32())
			if n < 0 || n > 1<<20 {
				return false
			}
			for i := 0; i < n && !s.bad; i++ {
				fd.colNames = append(fd.colNames, s.str())
				fd.colTypes = append(fd.colTypes, s.u8())
			}
			sawSchema = true
		case tagAccess:
			n := int(s.u32())
			if n < 0 || n > 1<<20 {
				return false
			}
			for i := 0; i < n && !s.bad; i++ {
				fd.access = append(fd.access, s.i64())
			}
		case tagSynopsis:
			col, syn := decodeSynopsis(&s)
			if syn == nil {
				return false
			}
			fd.syns[col] = syn
		case tagStarts:
			fd.starts = make([]int64, s.count(8))
			for i := range fd.starts {
				fd.starts[i] = s.i64()
			}
		case tagSlot:
			sd, ok := decodeSlot(&s, len(payload))
			if !ok {
				return false
			}
			fd.slots = append(fd.slots, sd)
		}
		if s.bad {
			return false
		}
	}
	return sawMeta && sawSchema && !d.bad
}

// decodeSlot decodes a slot section body. Every array has a fixed length
// and each element takes at least 4 bytes of the body, which is checked
// before anything is allocated; the chunk index is bounded by the payload
// length. So no section can make the loader allocate more than a small
// multiple of the bytes it spans.
func decodeSlot(s *dec, payloadLen int) (slotData, bool) {
	const n = chunkdir.ChunkRows
	sd := slotData{col: int(s.u32()), idx: int(s.u32())}
	kind := s.u8()
	if sd.idx > payloadLen/n {
		return sd, false
	}
	if kind == slotOffs && s.need(4*n) {
		sd.offs = make([]uint32, n)
		for i := range sd.offs {
			sd.offs[i] = s.u32()
		}
		return sd, !s.bad
	}
	sd.typ = decType(s.u8())
	sg := &chunkdir.Segment{}
	for w := range sg.Present {
		sg.Present[w] = s.u64()
	}
	for w := range sg.Nulls {
		sg.Nulls[w] = s.u64()
	}
	if kind != slotSeg || !s.need(4*n) {
		return sd, false
	}
	switch sd.typ {
	case datum.Int, datum.Date, datum.Bool:
		sg.Ints = make([]int64, n)
		for i := range sg.Ints {
			sg.Ints[i] = s.i64()
		}
	case datum.Float:
		sg.Floats = make([]float64, n)
		for i := range sg.Floats {
			sg.Floats[i] = s.f64()
		}
	case datum.Text:
		sg.Strs = make([]string, n)
		for i := range sg.Strs {
			sg.Strs[i] = s.str()
		}
	default:
		return sd, false
	}
	sd.seg = sg
	return sd, !s.bad
}

// decodeSynopsis decodes a synopsis section body, nil when malformed.
// Counts must not be negative, and min and max must be values of the
// column's type unless the column has none; any sketch content then
// leaves a valid synopsis. Array lengths are bounded by the body, as
// decodeSlot's are.
func decodeSynopsis(s *dec) (int, *stats.Synopsis) {
	col := int(s.u32())
	syn := stats.NewSynopsis(decType(s.u8()))
	syn.Count, syn.Nulls = s.i64(), s.i64()
	syn.Min, syn.Max = s.datum(), s.datum()
	hashes := make([]uint64, s.count32(8))
	for i := range hashes {
		hashes[i] = s.u64()
	}
	keys := make([]uint64, s.count32(16))
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i], vals[i] = s.u64(), s.f64()
	}
	typed := func(v datum.Datum) bool { return !v.Null() && v.T == syn.Type }
	if s.bad || syn.Count < 0 || syn.Nulls < 0 || syn.Count > 0 && !(typed(syn.Min) && typed(syn.Max)) {
		return col, nil
	}
	syn.AddSketches(hashes, keys, vals)
	return col, syn
}

func decodeFingerprint(s *dec) format.Fingerprint {
	var fp format.Fingerprint
	fp.Size = s.i64()
	fp.ModTime = time.Unix(0, s.i64())
	fp.Head = s.u64()
	fp.Tail = s.u64()
	fp.TailOff = s.i64()
	return fp
}

// parseJournal decodes the self-checksummed append records trailing the
// payload, stopping at the first torn or invalid one.
func parseJournal(b []byte) []format.Fingerprint {
	var out []format.Fingerprint
	d := dec{b: b}
	for d.off < len(d.b) {
		if d.u32() != journalTag {
			break
		}
		blen := int(d.u32())
		sum := d.u64()
		body := d.bytes(blen)
		if d.bad || checksum(body) != sum {
			break
		}
		s := dec{b: body}
		fp := decodeFingerprint(&s)
		if s.bad {
			break
		}
		out = append(out, fp)
	}
	return out
}

// missing reports whether err is a plain file-not-found — a cold start,
// not a corruption.
func missing(err error) bool { return errors.Is(err, fs.ErrNotExist) }
