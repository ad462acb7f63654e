package core

import (
	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/scan"
)

// csvDecoder is the CSV half of the in-situ scan (format.LineScan is the
// other): it locates one delimited attribute of a line and converts it.
//
//   - Tokenizing is selective and incremental: per tuple, character
//     scanning stops at the last attribute asked for (§4.1 "Selective
//     Tokenizing").
//   - Known positions in the positional map jump straight to an attribute;
//     near misses jump to the closest indexed attribute and tokenize
//     forward or backward from there (§4.2).
//   - Every boundary found on the way goes into the map.
type csvDecoder struct {
	s     *format.LineScan
	delim byte

	// tupPos is the per-tuple temporary map (paper §4.2 "Pre-fetching"):
	// field start offsets discovered for the current tuple's prefix.
	// tupPos[i] is the start of field i; it grows incrementally so the
	// tuple's characters are scanned at most once regardless of how many
	// columns the query touches.
	tupPos   []uint32
	tupShort bool     // the line ended before the prefix reached a request
	navPos   []uint32 // scratch: boundaries one forward navigation found

	useNearest bool  // consult pm.Nearest (map had content before this scan)
	nearHint   []int // per column: last attribute Nearest resolved to (-1 none)
}

// Begin implements format.LineDecoder.
func (d *csvDecoder) Begin(s *format.LineScan) {
	d.s = s
	d.delim = s.St.Tbl.Delimiter
	d.useNearest = false
	if s.PMCursors == nil {
		return
	}
	if d.nearHint == nil {
		d.nearHint = make([]int, len(s.PMCursors))
	}
	for i := range d.nearHint {
		d.nearHint[i] = -1
	}
	// Nearest-neighbor navigation only pays off when earlier queries
	// left positions behind; during the very first scan the per-tuple
	// prefix map is always at least as good.
	d.useNearest = s.St.PM.Metrics().Pointers > 0
}

// StartLine implements format.LineDecoder: every line is a tuple.
func (d *csvDecoder) StartLine([]byte) bool {
	d.tupPos = d.tupPos[:0]
	d.tupShort = false
	return true
}

// Field implements format.LineDecoder.
func (d *csvDecoder) Field(line []byte, col int, dst *datum.Datum) error {
	s := d.s
	typ := s.St.Types[col]
	field, ok, fromMap := d.locateField(line, col)
	if !ok {
		// Short row: missing trailing fields read as NULL.
		s.C[qtrace.CtrShortRows]++
		*dst = datum.NewNull(typ)
		return nil
	}
	var err error
	*dst, err = datum.ParseBytes(typ, field)
	if err != nil && fromMap {
		// A stale map offset (file edited in place) can land mid-field
		// and yield garbage bytes: re-tokenize from the line start and
		// retry before declaring a data error.
		if pos, found := d.prefixPos(line, col); found {
			*dst, err = datum.ParseBytes(typ, scan.FieldAt(line, pos, d.delim))
		} else {
			s.C[qtrace.CtrShortRows]++
			*dst, err = datum.NewNull(typ), nil
		}
	}
	if err != nil {
		return s.RowErr(col, err)
	}
	return nil
}

// locateField finds the bytes of attribute col in line, using the
// positional map when possible and recording what it learns. fromMap
// reports that the bytes were located by trusting a map position; the
// caller uses it to retry a failed parse from the line start, since a
// stale offset (file edited in place) can land mid-field.
func (d *csvDecoder) locateField(line []byte, col int) (field []byte, ok, fromMap bool) {
	if d.s.PMCursors != nil {
		if f, found := d.mapField(line, col); found {
			d.s.C[qtrace.CtrFieldsFromMap]++
			return f, true, true
		}
	}
	// No trustworthy positional information: extend the per-tuple prefix
	// tokenization up to col, learning every boundary along the way (§4.2
	// "Map Population": PostgresRaw learns as much as possible during each
	// query). The prefix is shared across the tuple's column accesses, so
	// each character is examined at most once.
	pos, found := d.prefixPos(line, col)
	d.s.C[qtrace.CtrFieldsFromScan]++
	if !found {
		return nil, false, false
	}
	return scan.FieldAt(line, pos, d.delim), true, false
}

// mapField resolves col through the positional map: a direct hit, the
// remembered nearest hint, or a nearest-neighbor search. Every failure —
// offset out of bounds, navigation running off the line — reports !ok so
// the caller degrades to re-tokenizing from the line start, rather than
// trusting an entry the current file contents may have outgrown.
func (d *csvDecoder) mapField(line []byte, col int) ([]byte, bool) {
	s := d.s
	if rel, ok := s.PMCursors[col].Get(s.Row); ok && int(rel) <= len(line) {
		return scan.FieldAt(line, rel, d.delim), true
	}
	if !d.useNearest {
		return nil, false
	}
	// Sequential scans resolve to the same neighboring attribute row after
	// row; try the remembered hint before paying for a full
	// nearest-neighbor search.
	if h := d.nearHint[col]; h >= 0 {
		if rel, ok := s.PMCursors[h].Get(s.Row); ok && int(rel) <= len(line) {
			pos, ok := d.navigate(line, h, rel, col)
			if ok {
				return scan.FieldAt(line, pos, d.delim), true
			}
			return nil, false
		}
	}
	if nearAttr, rel, ok := s.St.PM.Nearest(s.Row, col); ok && int(rel) <= len(line) {
		d.nearHint[col] = nearAttr
		if pos, ok := d.navigate(line, nearAttr, rel, col); ok {
			return scan.FieldAt(line, pos, d.delim), true
		}
	}
	return nil, false
}

// prefixPos returns the start offset of field col, incrementally extending
// the tuple's tokenized prefix: one pass over the bytes between the last
// known boundary and col, then the newly found boundaries go into the
// positional map as one run.
func (d *csvDecoder) prefixPos(line []byte, col int) (uint32, bool) {
	if col < len(d.tupPos) {
		return d.tupPos[col], true
	}
	if d.tupShort {
		return 0, false
	}
	known := len(d.tupPos)
	if known == 0 {
		d.tupPos = append(d.tupPos, 0)
	}
	d.tupPos = scan.ExtendPrefix(line, d.delim, col, d.tupPos)
	if d.s.PMWriter != nil {
		d.s.PMWriter.RecordRow(d.s.Row, known, d.tupPos[known:])
	}
	if col < len(d.tupPos) {
		return d.tupPos[col], true
	}
	d.tupShort = true
	return 0, false
}

// navigate walks from a known attribute position to the requested one,
// recording every intermediate boundary (incremental tokenization in both
// directions, §4.2 "Exploiting the Positional Map"). Forward, the
// boundaries are one run like prefixPos's; backward they are found in
// descending attribute order and recorded one at a time.
func (d *csvDecoder) navigate(line []byte, fromAttr int, fromRel uint32, col int) (uint32, bool) {
	s := d.s
	pos := fromRel
	switch {
	case fromAttr < col:
		d.navPos = scan.ExtendPrefix(line, d.delim, col-fromAttr, append(d.navPos[:0], fromRel))
		s.PMWriter.RecordRow(s.Row, fromAttr+1, d.navPos[1:])
		if len(d.navPos) <= col-fromAttr {
			return 0, false
		}
		pos = d.navPos[col-fromAttr]
	case fromAttr > col:
		for a := fromAttr - 1; a >= col; a-- {
			np, ok := scan.SkipBackward(line, pos, 1, d.delim)
			if !ok {
				return 0, false
			}
			pos = np
			s.PMCursors[a].Record(s.Row, pos)
		}
	}
	return pos, true
}
