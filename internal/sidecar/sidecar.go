// Package sidecar is the crash-safe persistence layer for a raw table's
// adaptive state. NoDB's auxiliary structures (positional map, binary
// column cache, statistics — paper §4) amortize cold-scan cost over a
// query sequence, but in-memory they die with the process and every
// restart re-pays the full cold scan. This package checkpoints them into
// a versioned, checksummed sidecar file next to the raw file (or under a
// configured directory), written via temp-file + atomic rename so a crash
// at any point leaves either the previous checkpoint or none — never a
// torn one.
//
// File layout (all integers little-endian):
//
//	magic    [8]byte  "NODBSC01"
//	version  uint32   3
//	plen     uint64   payload length
//	psum     uint64   FNV-1a over the payload bytes
//	payload  [plen]byte — tagged sections: tag u8, len u64, body
//	journal  zero or more self-checksummed append records
//
// Sections carry the raw file's fingerprint, row count and the row count
// its statistics were published at, a schema guard (table name, column
// names and types — drift discards the file), per-column access counters,
// and the table's chunk directory (internal/chunkdir): one section per
// column synopsis whose statistics were published — column u32, type u8,
// counts, min and max, then its value hashes and its sample's position
// keys and values (stats.Synopsis.Sketches) — then the tuple starts and
// one section per slot half, written as its arrays: column u32, chunk
// u32, kind u8, then the ChunkRows map offsets (u32), or the segment's
// type u8, present and NULL bitmaps and ChunkRows values (i64, f64 or
// length-prefixed text). Loading decodes every section into a fresh
// directory and installs it through the Absorb that merges a parallel
// scan's shards, adopting slots and synopses by pointer.
//
// Under MaxBytes, synopses are written first, each while it fits; map
// slots follow the tuple starts, likewise; then cached columns in
// descending access-counter order, so the budget keeps the workload's hot
// columns. A column's segments are written all or none: a partly cached
// column could not serve a cache scan.
//
// Validity is keyed by format.Fingerprint exactly like the in-memory
// state: on load, FileSame installs everything, FileAppended installs the
// (still valid) prefix structures with the row count forgotten, and
// FileReplaced — or any checksum, version, schema or section mismatch —
// discards the sidecar and the table starts cold. Files of earlier
// versions (version 1's per-pointer map and per-column cache sections,
// version 2's finalized statistics) are discarded as corrupt, not
// migrated. INSERT appends journal the post-append fingerprint after
// the payload, so a checkpoint taken before an append still validates as
// FileAppended without re-hashing the raw file.
package sidecar

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"nodb/internal/datum"
)

const (
	fileMagic   = "NODBSC01"
	stmtMagic   = "NODBST01"
	fileVersion = 3
	headerLen   = 8 + 4 + 8 + 8
)

// Section tags. Unknown tags are skipped on load, so later versions can
// add sections without invalidating older readers.
const (
	tagMeta     = 1          // fingerprint, row count, statistics row count
	tagSchema   = 2          // table name, column names and types
	tagAccess   = 3          // per-column access counters
	tagStarts   = 5          // positional-map tuple start offsets
	tagSlot     = 8          // one half of one chunk-directory slot
	tagSynopsis = 9          // one column synopsis
	journalTag  = 0x4C4A444E // "NDJL": append-journal record magic
)

// Slot section kinds.
const (
	slotOffs = 1 // map offsets
	slotSeg  = 2 // cache segment
)

// decType narrows a stored type byte back to a datum.Type.
func decType(v byte) datum.Type { return datum.Type(v) }

// checksum is the payload/body integrity hash (FNV-1a, matching the
// fingerprint hashing elsewhere in the engine).
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// enc is a little append-only byte encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// datum encodes a possibly-null scalar: flag, type, then the payload in
// the type's natural width.
func (e *enc) datum(d datum.Datum) {
	if d.Null() {
		e.u8(0)
		e.u8(uint8(d.T))
		return
	}
	e.u8(1)
	e.u8(uint8(d.T))
	switch d.T {
	case datum.Int, datum.Date:
		e.i64(d.Int())
	case datum.Float:
		e.f64(d.Float())
	case datum.Bool:
		if d.Bool() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	default:
		e.str(d.Text())
	}
}

// section appends a tagged section.
func (e *enc) section(tag byte, body []byte) {
	e.u8(tag)
	e.u64(uint64(len(body)))
	e.b = append(e.b, body...)
}

// trySection appends a tagged section only when the payload stays within
// maxBytes (<= 0 = unlimited). Reports whether the section was written.
func (e *enc) trySection(tag byte, body []byte, maxBytes int64) bool {
	if maxBytes > 0 && int64(len(e.b))+9+int64(len(body)) > maxBytes {
		return false
	}
	e.section(tag, body)
	return true
}

// dec is the matching bounds-checked decoder. Any overrun latches bad;
// callers check it once after a parse instead of per read.
type dec struct {
	b   []byte
	off int
	bad bool
}

func (d *dec) need(n int) bool {
	if d.bad || n < 0 || d.off+n > len(d.b) {
		d.bad = true
		return false
	}
	return true
}

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a u64 element count and returns it when that many elements
// of size bytes fit in what is left to decode; otherwise it latches bad and
// returns 0. A count read from disk can thus never size an allocation past
// the input.
func (d *dec) count(size int) int { return d.fit(d.u64(), size) }

// count32 is count for a u32 element count.
func (d *dec) count32(size int) int { return d.fit(uint64(d.u32()), size) }

func (d *dec) fit(n uint64, size int) int {
	if d.bad || n > uint64(len(d.b)-d.off)/uint64(size) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) bytes(n int) []byte {
	if !d.need(n) {
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) datum() datum.Datum {
	flag := d.u8()
	typ := datum.Type(d.u8())
	if flag == 0 {
		return datum.NewNull(typ)
	}
	switch typ {
	case datum.Int:
		return datum.NewInt(d.i64())
	case datum.Date:
		return datum.NewDate(d.i64())
	case datum.Float:
		return datum.NewFloat(d.f64())
	case datum.Bool:
		return datum.NewBool(d.u8() != 0)
	default:
		return datum.NewText(d.str())
	}
}
