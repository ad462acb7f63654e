package scan

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzTokenize drives the selective tokenizer and its incremental
// companions against arbitrary line bytes, checking the structural
// invariants the scanners rely on: offsets strictly increase, every
// field decoded via FieldAt matches the slice between offsets, and
// SkipForward / SkipBackward land on exactly the boundaries full
// tokenization found.
func FuzzTokenize(f *testing.F) {
	f.Add([]byte("a|b|c"), byte('|'), -1)
	f.Add([]byte("1,2,3,4,5"), byte(','), 2)
	f.Add([]byte(""), byte('|'), -1)
	f.Add([]byte("|||"), byte('|'), -1)
	f.Add([]byte("no-delims-here"), byte('\t'), 0)
	f.Add([]byte("trailing|"), byte('|'), -1)
	f.Add([]byte("123456789,-1,,-,0123456789abcdef,,x"), byte(','), 5)
	f.Fuzz(func(t *testing.T, line []byte, delim byte, upTo int) {
		if upTo > 1<<16 {
			upTo = 1 << 16 // keep the walk proportional to the input
		}
		dst, fields := Tokenize(line, delim, upTo, nil)
		if fields < 1 || len(dst) < 2 {
			t.Fatalf("Tokenize = %d fields, %d offsets; want >=1 and >=2", fields, len(dst))
		}
		for i := 1; i < len(dst); i++ {
			if dst[i] <= dst[i-1] {
				t.Fatalf("offsets not strictly increasing: %v", dst)
			}
		}
		if dst[len(dst)-1] > uint32(len(line))+1 {
			t.Fatalf("sentinel %d past end of %d-byte line", dst[len(dst)-1], len(line))
		}
		full, n := Tokenize(line, delim, -1, nil)
		if n != CountFields(line, delim) {
			t.Fatalf("full Tokenize found %d fields, CountFields says %d", n, CountFields(line, delim))
		}
		for k := 0; k < n; k++ {
			want := line[full[k] : full[k+1]-1]
			if got := FieldAt(line, full[k], delim); !bytes.Equal(got, want) {
				t.Fatalf("FieldAt(%d) = %q, want %q", k, got, want)
			}
			if pos, ok := SkipForward(line, 0, k, delim); !ok || pos != full[k] {
				t.Fatalf("SkipForward(0, %d) = %d,%v; want %d,true", k, pos, ok, full[k])
			}
			if k > 0 {
				if pos, ok := SkipBackward(line, full[k], 1, delim); !ok || pos != full[k-1] {
					t.Fatalf("SkipBackward(%d, 1) = %d,%v; want %d,true", full[k], pos, ok, full[k-1])
				}
			}
		}
		// ExtendPrefix resumed from any known prefix finds exactly the
		// boundaries full tokenization found, up to its stop.
		if upTo < 0 || upTo >= n {
			upTo = n + 1 // past the last field: a short row
		}
		for known := 1; known <= n; known += 1 + known/4 {
			got := ExtendPrefix(line, delim, upTo, append([]uint32(nil), full[:known]...))
			want := full[:max(known, min(upTo+1, n))]
			if !slices.Equal(got, want) {
				t.Fatalf("ExtendPrefix(upTo=%d) from %d known = %v, want %v", upTo, known, got, want)
			}
		}
	})
}
