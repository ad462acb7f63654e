package format_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	. "nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
	"nodb/internal/sidecar"
)

// fixedDecoder is the smallest possible line format: attribute c is the
// four bytes at offset 4c, lines starting with '#' are not tuples, and a
// line that ends early has NULL trailing attributes.
type fixedDecoder struct{ s *LineScan }

func (d *fixedDecoder) Begin(s *LineScan) { d.s = s }

func (d *fixedDecoder) StartLine(line []byte) bool { return len(line) == 0 || line[0] != '#' }

func (d *fixedDecoder) Field(line []byte, col int, dst *datum.Datum) error {
	s := d.s
	s.C[qtrace.CtrFieldsFromScan]++
	off := 4 * col
	if off+4 > len(line) {
		s.C[qtrace.CtrShortRows]++
		*dst = datum.NewNull(datum.Int)
		return nil
	}
	if s.PMCursors != nil {
		s.PMCursors[col].Record(s.Row, uint32(off))
	}
	v, err := datum.ParseBytes(datum.Int, line[off:off+4])
	if err != nil {
		return s.RowErr(col, err)
	}
	*dst = v
	return nil
}

// TestLineScanParallelEquivalence pins what every line adapter inherits
// from the frame: for 1, 2, 4 and 8 partitions the rows, every metric, the
// published row count and every column's statistics equal the sequential
// pass's — with a skipped line and a short row in the file, past the
// sketches' exact limits — and so do the statistics of a table restored
// from the sequential pass's sidecar; a malformed value reports the same
// absolute row. A filtered scan publishes statistics for the filter's
// column only: the output columns are parsed for qualifying rows alone.
func TestLineScanParallelEquivalence(t *testing.T) {
	const rows = 5000
	var good strings.Builder
	for i := 0; i < rows; i++ {
		switch i {
		case 70:
			good.WriteString("# not a tuple\n")
		case 200:
			fmt.Fprintf(&good, "%04d\n", i)
		default:
			// a: 4999 distinct values (estimated), b: 7, c: 4001 (exact).
			fmt.Fprintf(&good, "%04d%04d%04d\n", i, i%7, i*37%4001)
		}
	}
	bad := strings.Replace(good.String(), "\n0250", "\n02x0", 1)
	dir := t.TempDir()
	newDecoder := func() LineDecoder { return &fixedDecoder{} }
	filter := []expr.Expr{&expr.BinOp{Op: expr.Ne, L: &expr.ColRef{Index: 1, Type: datum.Int}, R: &expr.Const{D: datum.NewInt(3)}}}
	env := Env{PosMap: true, AttrPointers: true, Cache: true, Statistics: true}

	for _, tc := range []struct {
		name      string
		out       []int
		conjuncts []expr.Expr
		shortRows int64   // NULL fields of the short row the scan reads
		withStats []bool  // per column
		covered   []int64 // per column, the rows its synopsis covers
	}{
		{"full", []int{0, 1, 2}, nil, 2, []bool{true, true, true}, []int64{rows - 1, rows - 1, rows - 1}},
		// Row 3 is the first with b = 3: the output columns' feed ends there.
		{"filtered", []int{0, 2}, filter, 1, []bool{false, true, false}, []int64{3, rows - 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run scans content with one access method over a fresh table.
			run := func(content string, workers int) ([]exec.Row, *State, error) {
				path := filepath.Join(dir, fmt.Sprintf("%s%d-bad=%v.csv", tc.name, workers, content == bad))
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				tbl, err := schema.New("t", []schema.Column{
					{Name: "a", Type: datum.Int}, {Name: "b", Type: datum.Int}, {Name: "c", Type: datum.Int},
				}, path, schema.CSV)
				if err != nil {
					t.Fatal(err)
				}
				st := NewState(tbl, env)
				if err := st.Refresh(); err != nil {
					t.Fatal(err)
				}
				var op exec.Operator = NewLineScan(context.Background(), st, tc.out, tc.conjuncts, newDecoder())
				if workers > 0 {
					op = NewPartitionedLineScan(context.Background(), st, tc.out, tc.conjuncts, workers, newDecoder)
				}
				rows, err := exec.Drain(op)
				st.PublishStats()
				return rows, st, err
			}
			// sameStats compares every column's published statistics and
			// its synopsis's coverage (a sidecar keeps published ones only).
			sameStats := func(what string, got, want *State, restored bool) {
				t.Helper()
				if got.St.RowCount() != want.St.RowCount() {
					t.Errorf("%s: statistics row count %d, sequential %d", what, got.St.RowCount(), want.St.RowCount())
				}
				for c := range tc.withStats {
					if g, w := got.St.Col(c), want.St.Col(c); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: column %d statistics\n got %+v\nwant %+v", what, c, g, w)
					}
					n, wantN := int64(0), tc.covered[c]
					if syn := got.Dir.Synopsis(c); syn != nil {
						n = syn.Rows()
					}
					if restored && !tc.withStats[c] {
						wantN = 0
					}
					if n != wantN {
						t.Errorf("%s: column %d synopsis covers %d rows, want %d", what, c, n, wantN)
					}
				}
			}

			wantRows, seq, err := run(good.String(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if seq.RowCount() != rows-1 || seq.Metrics().ShortRows != tc.shortRows {
				t.Fatalf("sequential: rows = %d, metrics = %+v", seq.RowCount(), seq.Metrics())
			}
			for c, want := range tc.withStats {
				if cs := seq.St.Col(c); (cs != nil) != want {
					t.Errorf("sequential: column %d statistics = %+v, want some: %v", c, cs, want)
				}
			}
			if cs := seq.St.Col(1); cs.Count != rows-2 || cs.Nulls != 1 || cs.Min.Int() != 0 || cs.Max.Int() != 6 || cs.Distinct != 7 {
				t.Errorf("sequential: column b statistics %+v", cs)
			}
			if cs := seq.St.Col(2); cs != nil && (cs.Distinct != 4001 || cs.Max.Int() != 4000) {
				t.Errorf("sequential: column c statistics %+v, want 4001 distinct values up to 4000", cs)
			}
			if cs := seq.St.Col(0); cs != nil && (cs.Min.Int() != 0 || cs.Max.Int() != rows-1) {
				t.Errorf("sequential: column a min/max %v/%v, want 0/%d", cs.Min, cs.Max, rows-1)
			}
			_, _, wantErr := run(bad, 0)
			var want *RowError
			if !errors.As(wantErr, &want) || want.Row != 250 || want.Column != "a" {
				t.Fatalf("sequential malformed value: %v", wantErr)
			}
			for _, w := range []int{1, 2, 4, 8} {
				rows, st, err := run(good.String(), w)
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("workers %d: rows differ from the sequential pass", w)
				}
				if got, ref := st.Metrics(), seq.Metrics(); got != ref {
					t.Errorf("workers %d: metrics differ\nseq: %+v\npar: %+v", w, ref, got)
				}
				if st.RowCount() != seq.RowCount() {
					t.Errorf("workers %d: published rows %d", w, st.RowCount())
				}
				sameStats(fmt.Sprintf("workers %d", w), st, seq, false)
				_, _, err = run(bad, w)
				var re *RowError
				if !errors.As(err, &re) || re.Row != want.Row || re.Error() != want.Error() {
					t.Errorf("workers %d: malformed value: %v, want %v", w, err, wantErr)
				}
			}

			mgr := sidecar.New(sidecar.Config{Dir: t.TempDir()})
			defer mgr.Close()
			mgr.MarkDirty(seq)
			if err := mgr.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			restoredEnv := env
			restoredEnv.Sidecar = mgr
			restored := NewState(seq.Tbl, restoredEnv)
			if mgr.Stats().LoadHits != 1 {
				t.Fatalf("sidecar not restored: %+v", mgr.Stats())
			}
			sameStats("sidecar-restored", restored, seq, true)
		})
	}
}
