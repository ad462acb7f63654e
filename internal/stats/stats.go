// Package stats implements on-the-fly statistics (paper §4.4). While an
// in-situ scan parses a column, it feeds each value to the column's
// Synopsis: exact counts, NULLs, min and max, a k-minimum-values sketch of
// value hashes, and a bottom-k sample keyed by a hash of each row's
// absolute position. A synopsis covers a prefix of the table's rows; two
// synopses over adjacent row ranges merge into exactly the synopsis one
// pass over both would build, in any order, so a table's statistics do
// not depend on how its pass was partitioned. Finalize folds a synopsis
// into the ColumnStats the optimizer consumes through the same estimation
// interfaces a conventional DBMS exposes after ANALYZE, including an
// equi-depth histogram over the sample.
//
// Statistics are only built for requested attributes ("PostgresRaw creates
// statistics only on requested attributes") and are incrementally extended
// as queries touch more columns.
package stats

import (
	"math"
	"slices"
	"sort"
	"sync"

	"nodb/internal/datum"
)

// Sketch sizes; exported so benchmarks and tests can reason about them.
const (
	// SampleSize is how many rows the sample keeps: those with the
	// smallest position hashes.
	SampleSize = 1024
	// DistinctLimit is the largest distinct count the sketch knows
	// exactly; beyond it the count is estimated from the hash of the
	// (DistinctLimit+1)-th smallest value hash.
	DistinctLimit = 4096
	// HistogramBuckets is the number of equi-depth buckets.
	HistogramBuckets = 64
)

// ColumnStats is the finalized statistics of one column.
type ColumnStats struct {
	Type     datum.Type
	Count    int64 // non-null values observed
	Nulls    int64
	Min, Max datum.Datum
	Distinct float64 // estimated number of distinct values

	// bounds holds HistogramBuckets+1 equi-depth boundaries over the
	// sample (numeric and date columns only).
	bounds []float64
}

// HistogramBounds returns the equi-depth bucket boundaries (nil for
// non-numeric columns).
func (s *ColumnStats) HistogramBounds() []float64 { return s.bounds }

// NullFraction returns the fraction of NULLs among all observed rows.
func (s *ColumnStats) NullFraction() float64 {
	total := s.Count + s.Nulls
	if total == 0 {
		return 0
	}
	return float64(s.Nulls) / float64(total)
}

// SelectivityEq estimates the fraction of rows with column = value.
func (s *ColumnStats) SelectivityEq(v datum.Datum) float64 {
	if s.Count == 0 || v.Null() {
		return 0
	}
	if s.Distinct <= 0 {
		return 0.1
	}
	// Out-of-range constants match nothing.
	if !s.Min.Null() && datum.Compare(v, s.Min) < 0 {
		return 0
	}
	if !s.Max.Null() && datum.Compare(v, s.Max) > 0 {
		return 0
	}
	return (1 - s.NullFraction()) / s.Distinct
}

// SelectivityRange estimates the fraction of rows in [lo, hi]; pass a null
// datum for an open bound. Uses the equi-depth histogram when available,
// falling back to linear interpolation over [min,max].
func (s *ColumnStats) SelectivityRange(lo, hi datum.Datum) float64 {
	if s.Count == 0 {
		return 0
	}
	f := func(v datum.Datum, def float64) float64 {
		if v.Null() {
			return def
		}
		return s.cdf(v.Float())
	}
	sel := f(hi, 1) - f(lo, 0)
	if sel < 0 {
		sel = 0
	}
	return sel * (1 - s.NullFraction())
}

// cdf returns the estimated fraction of non-null values <= x.
func (s *ColumnStats) cdf(x float64) float64 {
	if len(s.bounds) >= 2 {
		b := s.bounds
		if x < b[0] {
			return 0
		}
		if x >= b[len(b)-1] {
			return 1
		}
		// Find the bucket containing x.
		i := sort.SearchFloat64s(b, x)
		if i == 0 {
			i = 1
		}
		lo, hi := b[i-1], b[i]
		frac := 1.0
		if hi > lo {
			frac = (x - lo) / (hi - lo)
		}
		return (float64(i-1) + frac) / float64(len(b)-1)
	}
	// No histogram (e.g. text column): interpolate over min/max if numeric.
	if s.Min.Null() || s.Max.Null() {
		return 0.5
	}
	mn, mx := s.Min.Float(), s.Max.Float()
	if mx <= mn {
		if x >= mn {
			return 1
		}
		return 0
	}
	switch {
	case x < mn:
		return 0
	case x > mx:
		return 1
	default:
		return (x - mn) / (mx - mn)
	}
}

// Synopsis is the mergeable statistics of one column over a prefix of a
// table's rows. Add feeds one row's value; Merge folds in the synopsis of
// other rows. Both sketches are order-independent — the distinct sketch
// keeps the smallest value hashes, the sample the rows with the smallest
// position hashes — so every partitioning of the rows folds to the same
// ColumnStats. A table of SampleSize rows or fewer keeps every row in its
// sample, and a column of DistinctLimit distinct values or fewer is
// counted exactly. A Synopsis is not safe for concurrent use.
type Synopsis struct {
	Type         datum.Type
	Count, Nulls int64 // non-NULL and NULL values fed
	Min, Max     datum.Datum

	// The distinct sketch: every distinct value hash <= hashCut fed. While
	// fed it lives in set, an open-addressing table (linear probing, at
	// most 3/4 full; 0 marks an empty slot, so a zero hash is stored as
	// 1); compact cuts it back to the DistinctLimit+1 smallest and leaves
	// them in hashes until the next feed.
	set     []uint64
	setN    int
	hashes  []uint64
	hashCut uint64
	// sample holds every numeric row with position key <= sampleCut; each
	// time it fills, it is cut back to the SampleSize smallest keys.
	sample    []sampled
	sampleCut uint64

	fold     *ColumnStats // Finalize's result while Rows() == foldRows
	foldRows int64
}

// sampled is one sample row: its position key and its value.
type sampled struct {
	key uint64
	v   float64
}

// NewSynopsis returns an empty synopsis of a typ column.
func NewSynopsis(typ datum.Type) *Synopsis {
	return &Synopsis{Type: typ, hashCut: math.MaxUint64, sampleCut: math.MaxUint64}
}

// Rows returns how many rows s covers.
func (s *Synopsis) Rows() int64 { return s.Count + s.Nulls }

// Add feeds the value of the row at absolute position pos: the tuple's
// start offset in a line-oriented file, the row number otherwise.
func (s *Synopsis) Add(pos uint64, v datum.Datum) {
	if v.Null() {
		s.Nulls++
		return
	}
	switch {
	case s.Count == 0:
		s.Min, s.Max = v, v
	case datum.Compare(v, s.Min) < 0:
		s.Min = v
	case datum.Compare(v, s.Max) > 0:
		s.Max = v
	}
	s.Count++
	s.addHash(valueHash(v))
	if numericish(s.Type) {
		s.addSample(mix(pos^posSeed), v.Float())
	}
}

// Merge folds o — the synopsis of rows s does not cover — into s. The
// result is what feeding both row sets to one synopsis builds.
func (s *Synopsis) Merge(o *Synopsis) {
	if s.Rows() == 0 { // s becomes a copy of o
		*s = *o
		s.set, s.hashes, s.sample = slices.Clone(o.set), slices.Clone(o.hashes), slices.Clone(o.sample)
		return
	}
	if o.Count > 0 {
		if s.Count == 0 || datum.Compare(o.Min, s.Min) < 0 {
			s.Min = o.Min
		}
		if s.Count == 0 || datum.Compare(o.Max, s.Max) > 0 {
			s.Max = o.Max
		}
	}
	s.Count += o.Count
	s.Nulls += o.Nulls
	// Either side's cut bounds the union's smallest hashes and keys.
	s.hashCut, s.sampleCut = min(s.hashCut, o.hashCut), min(s.sampleCut, o.sampleCut)
	for _, h := range o.distinct() {
		s.addHash(h)
	}
	s.sample = append(s.sample, o.sample...)
	s.cut()
}

// Sketches returns what a checkpoint keeps of s besides its exported
// fields: the DistinctLimit+1 smallest value hashes, and the sample's
// position keys and values. s is not changed.
func (s *Synopsis) Sketches() (hashes, keys []uint64, vals []float64) {
	sample := smallestKeys(slices.Clone(s.sample))
	keys, vals = make([]uint64, len(sample)), make([]float64, len(sample))
	for i, e := range sample {
		keys[i], vals[i] = e.key, e.v
	}
	return smallestDistinct(s.distinct()), keys, vals
}

// AddSketches merges sketches as Sketches returns them into s, a new
// synopsis (a checkpoint restore): the hashes stay at rest. Any input
// leaves s valid.
func (s *Synopsis) AddSketches(hashes, keys []uint64, vals []float64) {
	s.hashes = append(s.hashes, hashes...)
	for i := range min(len(keys), len(vals)) {
		if numericish(s.Type) {
			s.sample = append(s.sample, sampled{keys[i], vals[i]})
		}
	}
	s.cut()
}

// Finalize folds s into the planner's ColumnStats, memoized until s
// changes.
func (s *Synopsis) Finalize() *ColumnStats {
	if s.fold != nil && s.foldRows == s.Rows() {
		return s.fold
	}
	// At rest, the distinct sketch keeps only what it must, in a slice.
	if s.hashes, s.set, s.setN = slices.Clone(smallestDistinct(s.distinct())), nil, 0; len(s.hashes) > DistinctLimit {
		s.hashCut = slices.Max(s.hashes)
	}
	cs := &ColumnStats{Type: s.Type, Count: s.Count, Nulls: s.Nulls, Min: s.Min, Max: s.Max}
	cs.Distinct = float64(len(s.hashes))
	if len(s.hashes) > DistinctLimit {
		// k-minimum values: the (k+1)-th smallest of n uniform hashes lies
		// near (k+1)/n of the hash range, so n ≈ k / that fraction.
		const hashRange = float64(1 << 64)
		est := DistinctLimit / (float64(slices.Max(s.hashes)) / hashRange)
		cs.Distinct = min(float64(s.Count), max(float64(DistinctLimit+1), est))
	}
	if _, _, vals := s.Sketches(); len(vals) >= HistogramBuckets {
		slices.Sort(vals)
		cs.bounds = make([]float64, HistogramBuckets+1)
		for b := 0; b <= HistogramBuckets; b++ {
			cs.bounds[b] = vals[b*(len(vals)-1)/HistogramBuckets]
		}
	}
	s.fold, s.foldRows = cs, s.Rows()
	return cs
}

// addHash feeds value hash h.
func (s *Synopsis) addHash(h uint64) {
	if h > s.hashCut {
		return
	}
	if 4*(s.setN+1) > 3*len(s.set) {
		s.rebuild(s.distinct())
	}
	h = max(h, 1)
	mask := uint64(len(s.set) - 1)
	i := h & mask
	for ; s.set[i] != 0; i = (i + 1) & mask {
		if s.set[i] == h {
			return
		}
	}
	s.set[i] = h
	if s.setN++; s.setN >= 3*(DistinctLimit+1)/2 {
		keep := smallestDistinct(s.distinct())
		s.hashCut = slices.Max(keep)
		s.rebuild(keep)
	}
}

// rebuild puts hs into a fresh set with room for more.
func (s *Synopsis) rebuild(hs []uint64) {
	n := 64
	for 4*(len(hs)+1) > 3*n {
		n *= 2
	}
	s.set, s.setN, s.hashes = make([]uint64, n), 0, nil
	for _, h := range hs {
		s.addHash(h)
	}
}

// distinct returns a copy of the distinct sketch's hashes.
func (s *Synopsis) distinct() []uint64 {
	out := slices.Clone(s.hashes)
	for _, h := range s.set {
		if h != 0 {
			out = append(out, h)
		}
	}
	return out
}

// addSample feeds the row with position key k and value v.
func (s *Synopsis) addSample(k uint64, v float64) {
	if k <= s.sampleCut {
		s.sample = append(s.sample, sampled{k, v})
		s.cut()
	}
}

// cut cuts the sample back to the SampleSize smallest keys once it holds
// twice that, lowering its cut to the largest key kept. Keys above a cut
// are never among the smallest, so appending them unchecked (Merge) loses
// nothing.
func (s *Synopsis) cut() {
	if len(s.sample) >= 2*SampleSize {
		s.sample = slices.Clone(smallestKeys(s.sample))
		s.sampleCut = s.sample[SampleSize-1].key
	}
}

// smallestDistinct returns the DistinctLimit+1 smallest of distinct hs,
// reordering hs (Hoare's quickselect).
func smallestDistinct(hs []uint64) []uint64 {
	n := DistinctLimit
	if len(hs) <= n+1 {
		return hs
	}
	for lo, hi := 0, len(hs)-1; lo < hi; {
		p, i, j := hs[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for hs[i] < p {
				i++
			}
			for hs[j] > p {
				j--
			}
			if i <= j {
				hs[i], hs[j] = hs[j], hs[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			lo = hi
		}
	}
	return hs[:n+1]
}

// smallestKeys returns the SampleSize rows of rows with the smallest
// (distinct) keys, the largest of them last, reordering rows: Hoare's
// quickselect.
func smallestKeys(rows []sampled) []sampled {
	n := SampleSize - 1
	if len(rows) <= n {
		return rows
	}
	for lo, hi := 0, len(rows)-1; lo < hi; {
		p, i, j := rows[lo+(hi-lo)/2].key, lo, hi
		for i <= j {
			for rows[i].key < p {
				i++
			}
			for rows[j].key > p {
				j--
			}
			if i <= j {
				rows[i], rows[j] = rows[j], rows[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			lo = hi
		}
	}
	return rows[:n+1]
}

// posSeed keeps a row's position key apart from the hash of an equal
// integer value.
const posSeed = 0x9e3779b97f4a7c15

// valueHash is the distinct sketch's hash of a non-NULL value.
func valueHash(v datum.Datum) uint64 {
	if v.T == datum.Float || v.T == datum.Text {
		return mix(v.Hash())
	}
	return mix(uint64(v.Int()))
}

// mix is MurmurHash3's 64-bit finalizer: a bijection whose outputs are
// spread uniformly enough for the sketches to rank them.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Collector feeds one Synopsis in arrival order, each value at its
// ordinal: the position key of a table's row number. The load-first heap's
// ANALYZE uses it.
type Collector struct{ syn *Synopsis }

// NewCollector returns an empty collector for a column of type typ. The
// seed is ignored: the sample is chosen by position, not at random.
func NewCollector(typ datum.Type, seed int64) *Collector {
	return &Collector{syn: NewSynopsis(typ)}
}

// Add feeds the next value.
func (c *Collector) Add(v datum.Datum) { c.syn.Add(uint64(c.syn.Rows()), v) }

// Finalize folds the values fed so far into ColumnStats.
func (c *Collector) Finalize() *ColumnStats { return c.syn.Finalize() }

func numericish(t datum.Type) bool {
	return t == datum.Int || t == datum.Float || t == datum.Date
}

// Table is what the planner reads of one table's statistics: per-column
// stats plus the row count of the last complete pass. It is safe for
// concurrent use: a finishing scan publishes stats while other sessions
// plan against them. Individual *ColumnStats are immutable once installed.
type Table struct {
	mu       sync.RWMutex
	rowCount int64
	cols     map[int]*ColumnStats
}

// NewTable returns an empty statistics registry.
func NewTable() *Table {
	return &Table{cols: make(map[int]*ColumnStats)}
}

// RowCount returns the row count of the last complete pass (0 until
// then).
func (t *Table) RowCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowCount
}

// SetRowCount publishes the row count.
func (t *Table) SetRowCount(n int64) {
	t.mu.Lock()
	t.rowCount = n
	t.mu.Unlock()
}

// Set installs finalized stats for a column ordinal.
func (t *Table) Set(col int, s *ColumnStats) {
	t.mu.Lock()
	t.cols[col] = s
	t.mu.Unlock()
}

// Col returns the stats for a column, or nil if never collected.
func (t *Table) Col(col int) *ColumnStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[col]
}

// Has reports whether stats exist for the column.
func (t *Table) Has(col int) bool { return t.Col(col) != nil }

// CoveredColumns returns how many columns have stats.
func (t *Table) CoveredColumns() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cols)
}

// Drop discards all statistics (e.g. after external file updates).
func (t *Table) Drop() {
	t.mu.Lock()
	t.cols = make(map[int]*ColumnStats)
	t.rowCount = 0
	t.mu.Unlock()
}
