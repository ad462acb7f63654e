package chunkdir

import (
	"math/rand"
	"testing"
)

// TestBitRangeHelpers pins the mask arithmetic of the word-at-a-time
// range scans at word boundaries.
func TestBitRangeHelpers(t *testing.T) {
	bm := make([]uint64, words)
	for i := 10; i < 140; i++ {
		bitSet(bm, i)
	}
	cases := []struct {
		start, n int
		all, any bool
	}{
		{10, 130, true, true},
		{9, 2, false, true},
		{0, 5, false, false},
		{63, 2, true, true},
		{64, 64, true, true},
		{139, 1, true, true},
		{140, 5, false, false},
		{130, 20, false, true},
		{0, 192, false, true},
		{100, 200, false, true},
		{200, 10, false, false},
		{1000, 24, false, false}, // the segment's last word
	}
	for _, tc := range cases {
		if got := bitRangeAllSet(bm, tc.start, tc.n); got != tc.all {
			t.Errorf("bitRangeAllSet(%d,%d) = %v, want %v", tc.start, tc.n, got, tc.all)
		}
		if got := bitRangeAnySet(bm, tc.start, tc.n); got != tc.any {
			t.Errorf("bitRangeAnySet(%d,%d) = %v, want %v", tc.start, tc.n, got, tc.any)
		}
	}
}

// TestOrShifted checks the word-at-a-time shifted OR of a bit range
// against a bit-by-bit copy, for shifts both ways across word boundaries.
func TestOrShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var src, dst, want [words]uint64
		for w := range src {
			src[w], dst[w] = rng.Uint64(), rng.Uint64()&rng.Uint64()
		}
		want = dst
		lo := rng.Intn(ChunkRows)
		hi := lo + rng.Intn(ChunkRows-lo+1)
		shift := rng.Intn(ChunkRows-(hi-lo)+1) - lo // lands anywhere in the bitmap
		set := 0
		for r := lo; r < hi; r++ {
			if bitGet(src[:], r) {
				bitSet(want[:], r+shift)
				set++
			}
		}
		if got := orShifted(&dst, &src, lo, hi, shift); dst != want || got != set {
			t.Fatalf("orShifted([%d,%d) by %d): %d set, bitmap differs: %v", lo, hi, shift, got, dst != want)
		}
	}
}
