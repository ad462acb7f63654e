package exec

import (
	"math"
	"math/bits"

	"nodb/internal/datum"
)

// Key hashing and the int32 chained hash index shared by the hash join's
// build table and the hash aggregation's group table.

// nullKeyHash is the pre-mix hash of every NULL key: NULLs of any type
// group together (datum.Compare orders them equal).
const nullKeyHash = 0x5bd1e9955bd1e995

// keyHash is the pre-mix hash of one key value. Values datum.Compare
// orders equal hash equal: NULLs alike, Int, Date and Bool by payload, a
// Float that holds a whole number as that integer (so Int 1 meets Float
// 1.0), Text by its bytes.
func keyHash(d datum.Datum) uint64 {
	if d.Null() {
		return nullKeyHash
	}
	switch d.T {
	case datum.Int, datum.Date, datum.Bool:
		return uint64(d.Int())
	case datum.Float:
		f := d.Float()
		if f == float64(int64(f)) {
			return uint64(int64(f))
		}
		return math.Float64bits(f)
	case datum.Text: // FNV-1a, inline
		h, s := uint64(14695981039346656037), d.Text()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	return d.Hash()
}

// tupleHash folds the key values at position i. A single key hashes to
// keyHash itself, which is what lets the join's raw-int64 table and its
// generic comparison path share one slot function.
func tupleHash(kv [][]datum.Datum, i int) uint64 {
	var h uint64
	for _, v := range kv {
		h = h*1099511628211 + keyHash(v[i])
	}
	return h
}

// chainTable is a power-of-two chained hash index over rows kept
// elsewhere, column-major. Row r links as r+1, so the zero value of heads
// and next means "end of chain".
type chainTable struct {
	heads []int32
	next  []int32
	shift uint // 64 - log2(len(heads))
}

// reset empties the slot array, sized for n rows at load factor 1/2.
func (t *chainTable) reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.heads = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// head returns the first row of hash h's chain (plus one; 0 when empty).
// Fibonacci hashing picks the slot: the high bits of the product are the
// well-mixed ones.
func (t *chainTable) head(h uint64) int32 { return t.heads[(h*0x9E3779B97F4A7C15)>>t.shift] }

// link pushes row r onto the front of hash h's chain; next must already
// have room for r.
func (t *chainTable) link(r int32, h uint64) {
	s := (h * 0x9E3779B97F4A7C15) >> t.shift
	t.next[r] = t.heads[s]
	t.heads[s] = r + 1
}

// groupTable assigns group ids in first-seen order. Group g's key values
// sit at keys[k][g], column-major, and its full hash at hashes[g]; two
// keys are the same group when their hashes match and datum.Compare
// orders every key value equal (SQL GROUP BY semantics: NULLs group
// together, Int 1 meets Float 1.0).
type groupTable struct {
	chainTable
	keys   [][]datum.Datum
	hashes []uint64
}

// init empties the table for keys of the given width, sized for hint
// groups.
func (t *groupTable) init(width, hint int) {
	t.keys = make([][]datum.Datum, width)
	t.hashes = t.hashes[:0]
	t.next = t.next[:0]
	t.reset(hint)
}

// len returns the number of groups.
func (t *groupTable) len() int { return len(t.hashes) }

// assign maps every live position of the key vectors to its group id,
// creating groups as they first appear: the keys are hashed column by
// column, once per batch, then each position walks its chain.
//
//nodb:hotpath
func (t *groupTable) assign(kv [][]datum.Datum, live []int, hashes []uint64, gids []int32) {
	for _, i := range live {
		hashes[i] = 0
	}
	for _, col := range kv {
		for _, i := range live {
			hashes[i] = hashes[i]*1099511628211 + keyHash(col[i])
		}
	}
	for _, i := range live {
		gids[i] = t.find(kv, i, hashes[i])
	}
}

// find returns the group of the key at position i of kv (hash h), adding
// it when new.
//
//nodb:hotpath
func (t *groupTable) find(kv [][]datum.Datum, i int, h uint64) int32 {
	for r := t.head(h); r != 0; r = t.next[r-1] {
		if t.hashes[r-1] == h && t.keyEqual(r-1, kv, i) {
			return r - 1
		}
	}
	g := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	for k, col := range kv {
		t.keys[k] = append(t.keys[k], col[i])
	}
	t.next = append(t.next, 0)
	if 2*len(t.hashes) > len(t.heads) {
		t.reset(len(t.hashes))
		for r, rh := range t.hashes {
			t.link(int32(r), rh)
		}
	} else {
		t.link(g, h)
	}
	return g
}

// keyEqual reports whether group g's key equals the key at position i.
func (t *groupTable) keyEqual(g int32, kv [][]datum.Datum, i int) bool {
	for k, col := range kv {
		if !groupEqual(t.keys[k][g], col[i]) {
			return false
		}
	}
	return true
}

// groupEqual is datum.Compare(a, b) == 0, with the same-typed cases
// inline.
func groupEqual(a, b datum.Datum) bool {
	if a.T == b.T && !a.Null() && !b.Null() {
		switch a.T {
		case datum.Int, datum.Date, datum.Bool:
			return a.Int() == b.Int()
		case datum.Text:
			return a.Text() == b.Text()
		}
	}
	return datum.Compare(a, b) == 0
}
