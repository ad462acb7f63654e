package colcache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nodb/internal/datum"
)

// The equivalence tests merge the same shards into two caches — through
// Absorb and through the per-value reference (View.Put for every cached
// shard value, columns and rows ascending) — and require the two to agree
// on every value, counter, byte and eviction, and on the LRU order the
// next eviction would follow.

var equivTypes = []datum.Type{datum.Int, datum.Float, datum.Text, datum.Bool, datum.Date}

func equivValue(typ datum.Type, rng *rand.Rand) datum.Datum {
	if rng.Intn(9) == 0 {
		return datum.NewNull(typ)
	}
	switch typ {
	case datum.Float:
		return datum.NewFloat(rng.Float64())
	case datum.Text:
		return datum.NewText(fmt.Sprintf("v%0*d", rng.Intn(12), rng.Intn(1000)))
	case datum.Bool:
		return datum.NewBool(rng.Intn(2) == 0)
	case datum.Date:
		return datum.NewDate(int64(rng.Intn(20000)))
	}
	return datum.NewInt(rng.Int63())
}

// randomShard fills a cache like a partition worker: columns of assorted
// types, dense or sparse (selective parsing), some cut short (LIMIT).
func randomShard(rng *rand.Rand, cols, rows int) *Cache {
	sh := New(0)
	for col := 0; col < cols; col++ {
		typ := equivTypes[col%len(equivTypes)]
		var density int
		switch rng.Intn(4) {
		case 0:
			density = 100
		case 1:
			density = 40
		case 2:
			density = 2
		default:
			sh.View(col, typ) // needed by the query, never parsed
			continue
		}
		upto := rows
		if rng.Intn(3) == 0 {
			upto = rng.Intn(rows + 1)
		}
		v := sh.View(col, typ)
		for r := 0; r < upto; r++ {
			if rng.Intn(100) < density {
				v.Put(r, equivValue(typ, rng))
			}
		}
	}
	return sh
}

// absorbReference is the per-value merge Absorb replaced.
func absorbReference(c, sh *Cache, rowOffset int) {
	cols := sh.CachedColumns()
	sort.Ints(cols)
	for _, col := range cols {
		e := sh.cols[col]
		src := sh.ReadView(col)
		dst := c.View(col, e.typ)
		if !dst.Valid() {
			continue
		}
		for r := 0; r < len(e.present)*64; r++ {
			if d, ok := src.Get(r); ok {
				dst.Put(rowOffset+r, d)
			}
		}
	}
}

func lruCols(c *Cache) []int {
	var out []int
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).col)
	}
	return out
}

func requireSameCache(t *testing.T, what string, got, want *Cache, rows int) {
	t.Helper()
	if got.Metrics() != want.Metrics() {
		t.Fatalf("%s: metrics %+v, reference %+v", what, got.Metrics(), want.Metrics())
	}
	if got.Bytes() != want.Bytes() {
		t.Fatalf("%s: Bytes %d, reference %d", what, got.Bytes(), want.Bytes())
	}
	if g, w := lruCols(got), lruCols(want); !slices.Equal(g, w) {
		t.Fatalf("%s: LRU order %v, reference %v", what, g, w)
	}
	for col, we := range want.cols {
		ge := got.cols[col]
		if ge == nil {
			t.Fatalf("%s: column %d missing", what, col)
		}
		if ge.n != we.n || ge.bytes != we.bytes {
			t.Fatalf("%s: column %d n=%d bytes=%d, reference n=%d bytes=%d", what, col, ge.n, ge.bytes, we.n, we.bytes)
		}
		// What a checkpoint would serialize has the same shape.
		if len(ge.present) != len(we.present) || len(ge.ints) != len(we.ints) ||
			len(ge.floats) != len(we.floats) || len(ge.strs) != len(we.strs) {
			t.Fatalf("%s: column %d array lengths differ from the reference", what, col)
		}
		gv, wv := got.ReadView(col), want.ReadView(col)
		for r := 0; r < rows; r++ {
			gd, gok := gv.Get(r)
			wd, wok := wv.Get(r)
			if gok != wok || (gok && (gd.Null() != wd.Null() || datum.Compare(gd, wd) != 0)) {
				t.Fatalf("%s: column %d row %d = %v,%v, reference %v,%v", what, col, r, gd, gok, wd, wok)
			}
		}
	}
}

func TestAbsorbMatchesPerValue(t *testing.T) {
	const cols = 7
	for _, tc := range []struct {
		name    string
		aligned bool
		budget  int64
	}{
		{"unaligned", false, 0},
		{"word-aligned", true, 0},
		// Roomy enough for every merged column on its own, too tight for
		// all of them: merging evicts other columns, never refuses one.
		{"unaligned/budget", false, 12_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evicted := false
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got, want := New(tc.budget), New(tc.budget)
				if seed%3 == 0 {
					// The destination already caches scattered rows, so
					// shard spans meet occupied ranges (the fill-in path).
					for _, c := range []*Cache{got, want} {
						prng := rand.New(rand.NewSource(seed))
						for i := 0; i < 60; i++ {
							col := prng.Intn(cols)
							typ := equivTypes[col%len(equivTypes)]
							c.Put(col, prng.Intn(500), typ, equivValue(typ, prng))
						}
					}
				}
				total := 0
				for part := 0; part < 3; part++ {
					n := 1 + rng.Intn(300)
					if tc.aligned {
						n = 64 * (1 + rng.Intn(4))
					}
					a := randomShard(rand.New(rand.NewSource(seed*7+int64(part))), cols, n)
					b := randomShard(rand.New(rand.NewSource(seed*7+int64(part))), cols, n)
					got.Absorb(a, total)
					absorbReference(want, b, total)
					total += n
					requireSameCache(t, fmt.Sprintf("seed %d part %d", seed, part), got, want, total+64)
				}
				evicted = evicted || got.Metrics().Evictions > 0
			}
			if tc.budget > 0 && !evicted {
				t.Error("budget never forced an eviction: the test lost its teeth")
			}
		})
	}
}

// TestAbsorbColumnThatCannotFit: under a budget a shard column merges whole
// or not at all, and the cache stays within budget either way.
func TestAbsorbColumnThatCannotFit(t *testing.T) {
	sh := New(0)
	for r := 0; r < 100; r++ {
		sh.Put(0, r, datum.Int, datum.NewInt(int64(r)))
		if r < 10 {
			sh.Put(1, r, datum.Int, datum.NewInt(int64(r)))
		}
	}
	main := New(entryOverhead*2 + 16 + 10*8 + 64) // column 1 fits, column 0 never
	main.Absorb(sh, 5)
	if main.Bytes() > main.Budget() {
		t.Errorf("budget exceeded: %d > %d", main.Bytes(), main.Budget())
	}
	if n := main.CoveredRows(0); n != 0 {
		t.Errorf("oversized column partially merged: %d rows", n)
	}
	if n := main.CoveredRows(1); n != 10 {
		t.Errorf("fitting column merged %d rows, want 10", n)
	}
	if v, ok := main.Get(1, 14); !ok || v.Int() != 9 {
		t.Errorf("Get(1,14) = %v,%v", v, ok)
	}
}

func TestBitsOrShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shift := range []int{0, 1, 63, 64, 65, 200} {
		src := []uint64{rng.Uint64(), 0, rng.Uint64(), 1 << 63}
		dst := make([]uint64, len(src)+shift/64+1)
		dst[1] = rng.Uint64()
		want := slices.Clone(dst)
		for i := 0; i < len(src)*64; i++ {
			if bitGet(src, i) {
				bitSet(want, shift+i)
			}
		}
		bitsOrShifted(dst, src, shift)
		if !slices.Equal(dst, want) {
			t.Errorf("shift %d: got %x want %x", shift, dst, want)
		}
	}
}

// BenchmarkAbsorb merges a 4-column × 10000-row shard at an unaligned row
// offset, the shape of a parallel cold scan's second partition.
func BenchmarkAbsorb(b *testing.B) {
	const cols, rows = 4, 10000
	sh := New(0)
	for col := 0; col < cols; col++ {
		v := sh.View(col, datum.Int)
		for r := 0; r < rows; r++ {
			v.Put(r, datum.NewInt(int64(r)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(0).Absorb(sh, 9999)
	}
}
