package chunkdir

import "testing"

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
