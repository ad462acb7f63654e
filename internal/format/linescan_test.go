package format

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
	"nodb/internal/qtrace"
	"nodb/internal/schema"
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
// from the frame: for 1, 2 and 8 partitions the rows, every metric and the
// published row count and statistics equal the sequential pass's — with a
// skipped line and a short row in the file — and a malformed value reports
// the same absolute row.
func TestLineScanParallelEquivalence(t *testing.T) {
	var good strings.Builder
	for i := 0; i < 300; i++ {
		switch i {
		case 70:
			good.WriteString("# not a tuple\n")
		case 200:
			fmt.Fprintf(&good, "%04d\n", i)
		default:
			fmt.Fprintf(&good, "%04d%04d%04d\n", i, i%7, 2*i)
		}
	}
	bad := strings.Replace(good.String(), "\n0250", "\n02x0", 1)
	dir := t.TempDir()
	newDecoder := func() LineDecoder { return &fixedDecoder{} }
	filter := []expr.Expr{&expr.BinOp{Op: expr.Ne, L: &expr.ColRef{Index: 1, Type: datum.Int}, R: &expr.Const{D: datum.NewInt(3)}}}

	// run scans content with one access method over a fresh table.
	run := func(content string, workers int) ([]exec.Row, *State, error) {
		path := filepath.Join(dir, fmt.Sprintf("t%d.csv", workers))
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := schema.New("t", []schema.Column{
			{Name: "a", Type: datum.Int}, {Name: "b", Type: datum.Int}, {Name: "c", Type: datum.Int},
		}, path, schema.CSV)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(tbl, Env{PosMap: true, AttrPointers: true, Cache: true, Statistics: true})
		if err := st.Refresh(); err != nil {
			t.Fatal(err)
		}
		var op exec.Operator = newLineScan(context.Background(), st, []int{0, 2}, filter, newDecoder())
		if workers > 0 {
			op = NewPartitionedLineScan(context.Background(), st, []int{0, 2}, filter, workers, newDecoder)
		}
		rows, err := exec.Drain(op)
		return rows, st, err
	}

	wantRows, seq, err := run(good.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.RowCount() != 299 || seq.Metrics().ShortRows != 1 {
		t.Fatalf("sequential: rows = %d, metrics = %+v", seq.RowCount(), seq.Metrics())
	}
	_, _, wantErr := run(bad, 0)
	var want *RowError
	if !errors.As(wantErr, &want) || want.Row != 250 || want.Column != "a" {
		t.Fatalf("sequential malformed value: %v", wantErr)
	}
	for _, w := range []int{1, 2, 8} {
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
		if st.RowCount() != seq.RowCount() || st.St.RowCount() != seq.St.RowCount() ||
			!reflect.DeepEqual(st.St.Col(1), seq.St.Col(1)) {
			t.Errorf("workers %d: published rows %d / statistics differ", w, st.RowCount())
		}
		_, _, err = run(bad, w)
		var re *RowError
		if !errors.As(err, &re) || re.Row != want.Row || re.Error() != want.Error() {
			t.Errorf("workers %d: malformed value: %v, want %v", w, err, wantErr)
		}
	}
}
