// Package posmap is the positional-map view (paper §4.2) of a table's
// chunk directory (internal/chunkdir): a byte-budgeted, incrementally
// populated index of attribute positions inside a raw file — dense tuple
// starts plus per-(attribute, chunk) offsets, the paper's "collection of
// chunks, partitioned vertically and horizontally". Scans record through a
// Writer or a Cursor and navigate with Nearest.
package posmap

import "nodb/internal/chunkdir"

// Options configure a Map.
type Options struct {
	// Budget is the maximum number of bytes the attribute positions may
	// occupy in memory; <= 0 means unlimited. Tuple start offsets are the
	// paper's minimal end-of-line map and are always kept.
	Budget int64
}

// Metrics counts the map's activity.
type Metrics = chunkdir.MapMetrics

// Cursor is the scan-lifetime accessor of one attribute's positions.
type Cursor = chunkdir.Cursor

// Writer is the recorder of one sequential scan.
type Writer = chunkdir.Writer

// Map is the positional map of one raw file.
type Map struct{ d *chunkdir.Dir }

// New creates an empty positional map for a file with numAttrs attributes.
func New(numAttrs int, opts Options) *Map { return Of(chunkdir.New(numAttrs, opts.Budget, 0)) }

// Of returns the map view of d.
func Of(d *chunkdir.Dir) *Map { return &Map{d} }

// Metrics returns a copy of the activity counters.
func (m *Map) Metrics() Metrics { return m.d.MapMetrics() }

// MemoryBytes returns the accounted size of the in-memory positions.
func (m *Map) MemoryBytes() int64 { return m.d.MapBytes() }

// RecordTupleStart stores the absolute file offset of tuple row; rows must
// arrive in order.
func (m *Map) RecordTupleStart(row int, off int64) { m.d.RecordTupleStart(row, off) }

// Nearest returns the indexed attribute closest to attr with a recorded
// position for row, and that position.
func (m *Map) Nearest(row, attr int) (int, uint32, bool) { return m.d.Nearest(row, attr) }

// BeginScan marks the start of a scan; positions it touches are pinned.
func (m *Map) BeginScan() { m.d.BeginScan() }

// Cursor returns a sequential accessor for attr.
func (m *Map) Cursor(attr int) *Cursor { return m.d.Cursor(attr) }

// Writer returns a run recorder for the scan begun by the last BeginScan.
func (m *Map) Writer() *Writer { return m.d.Writer() }
