package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"nodb/internal/datum"
)

// Tuple encoding: a null bitmap (one bit per column, ceil(n/8) bytes)
// followed by the payloads of the non-null columns in order. Int/Date are
// 8-byte little-endian, Float is an 8-byte IEEE754 image, Bool is one
// byte, Text is a uvarint length followed by the bytes (varlena-style).

// EncodeTuple appends the binary image of row to buf and returns it.
func EncodeTuple(row []datum.Datum, buf []byte) []byte {
	nb := (len(row) + 7) / 8
	bmStart := len(buf)
	for i := 0; i < nb; i++ {
		buf = append(buf, 0)
	}
	var scratch [binary.MaxVarintLen64]byte
	for i, d := range row {
		if d.Null() {
			buf[bmStart+i/8] |= 1 << uint(i%8)
			continue
		}
		switch d.T {
		case datum.Int, datum.Date:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Int()))
		case datum.Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Float()))
		case datum.Bool:
			if d.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case datum.Text:
			s := d.Text()
			n := binary.PutUvarint(scratch[:], uint64(len(s)))
			buf = append(buf, scratch[:n]...)
			buf = append(buf, s...)
		}
	}
	return buf
}

// DecodeTuplePrefix decodes columns 0..upTo and leaves the rest NULL —
// the slot_deform-style partial decode row stores use when a query only
// touches a tuple's prefix. dst is resized to len(types).
func DecodeTuplePrefix(data []byte, types []datum.Type, upTo int, dst []datum.Datum) ([]datum.Datum, error) {
	nb := (len(types) + 7) / 8
	if len(data) < nb {
		return dst, fmt.Errorf("storage: tuple too short for null bitmap")
	}
	bm := data[:nb]
	pos := nb
	if cap(dst) < len(types) {
		dst = make([]datum.Datum, len(types))
	} else {
		dst = dst[:len(types)]
	}
	if upTo >= len(types) {
		upTo = len(types) - 1
	}
	for i := upTo + 1; i < len(types); i++ {
		dst[i] = datum.NewNull(types[i])
	}
	types = types[:upTo+1]
	for i, t := range types {
		if bm[i/8]&(1<<uint(i%8)) != 0 {
			dst[i] = datum.NewNull(t)
			continue
		}
		switch t {
		case datum.Int, datum.Date:
			if pos+8 > len(data) {
				return dst, fmt.Errorf("storage: truncated int column %d", i)
			}
			v := int64(binary.LittleEndian.Uint64(data[pos:]))
			if t == datum.Int {
				dst[i] = datum.NewInt(v)
			} else {
				dst[i] = datum.NewDate(v)
			}
			pos += 8
		case datum.Float:
			if pos+8 > len(data) {
				return dst, fmt.Errorf("storage: truncated float column %d", i)
			}
			dst[i] = datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
			pos += 8
		case datum.Bool:
			if pos+1 > len(data) {
				return dst, fmt.Errorf("storage: truncated bool column %d", i)
			}
			dst[i] = datum.NewBool(data[pos] != 0)
			pos++
		case datum.Text:
			ln, n := binary.Uvarint(data[pos:])
			if n <= 0 || pos+n+int(ln) > len(data) {
				return dst, fmt.Errorf("storage: truncated text column %d", i)
			}
			pos += n
			dst[i] = datum.NewText(string(data[pos : pos+int(ln)]))
			pos += int(ln)
		default:
			return dst, fmt.Errorf("storage: cannot decode type %v", t)
		}
	}
	return dst, nil
}
