package fits

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/schema"
)

func sampleCols() []Column {
	return []Column{
		{Name: "mag", Type: Float64},
		{Name: "dist", Type: Float32},
		{Name: "id", Type: Int64},
		{Name: "flags", Type: Int32},
	}
}

func sampleRows(n int, seed int64) [][]datum.Datum {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]datum.Datum, n)
	for i := range rows {
		rows[i] = []datum.Datum{
			datum.NewFloat(rng.Float64()*10 + 5),
			datum.NewFloat(float64(float32(rng.Float64() * 1000))),
			datum.NewInt(int64(i)),
			datum.NewInt(rng.Int63n(256)),
		}
	}
	return rows
}

func writeSample(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.fits")
	if err := WriteTable(path, sampleCols(), sampleRows(n, 42)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteOpenRoundtrip(t *testing.T) {
	path := writeSample(t, 500)
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	if tab.NRows != 500 {
		t.Errorf("NRows = %d", tab.NRows)
	}
	if len(tab.Cols) != 4 || tab.Cols[0].Name != "mag" || tab.Cols[2].Type != Int64 {
		t.Errorf("cols = %+v", tab.Cols)
	}
	// Read every row of every column and compare against the source.
	want := sampleRows(500, 42)
	rd := tab.NewReader()
	cols := []int{0, 1, 2, 3}
	for i := 0; i < 500; i++ {
		got, err := rd.Next(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Float() != want[i][0].Float() {
			t.Fatalf("row %d mag: %v vs %v", i, got[0], want[i][0])
		}
		if got[1].Float() != want[i][1].Float() {
			t.Fatalf("row %d dist (float32): %v vs %v", i, got[1], want[i][1])
		}
		if got[2].Int() != int64(i) {
			t.Fatalf("row %d id: %v", i, got[2])
		}
	}
}

func TestFileIsBlockAligned(t *testing.T) {
	path := writeSample(t, 7)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size()%BlockSize != 0 {
		t.Errorf("file size %d is not a multiple of %d", fi.Size(), BlockSize)
	}
}

func TestNegativeValuesRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "neg.fits")
	cols := []Column{{Name: "a", Type: Int32}, {Name: "b", Type: Int64}, {Name: "c", Type: Float64}}
	rows := [][]datum.Datum{
		{datum.NewInt(-123), datum.NewInt(-1 << 40), datum.NewFloat(-2.5)},
	}
	if err := WriteTable(path, cols, rows); err != nil {
		t.Fatal(err)
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	got, err := tab.NewReader().Next([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != -123 || got[1].Int() != -1<<40 || got[2].Float() != -2.5 {
		t.Errorf("negative roundtrip = %v", got)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.fits")); err == nil {
		t.Error("missing file must error")
	}
	// A file with no BINTABLE extension.
	garbage := filepath.Join(dir, "bad.fits")
	if err := os.WriteFile(garbage, make([]byte, BlockSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(garbage); err == nil {
		t.Error("file without BINTABLE must error")
	}
}

func TestWriteTableErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteTable(filepath.Join(dir, "x.fits"),
		[]Column{{Name: "a", Type: ColType('Z')}}, nil); err == nil {
		t.Error("unsupported column type must error")
	}
	if err := WriteTable(filepath.Join(dir, "y.fits"),
		[]Column{{Name: "a", Type: Int32}},
		[][]datum.Datum{{datum.NewInt(1), datum.NewInt(2)}}); err == nil {
		t.Error("row arity mismatch must error")
	}
}

func TestProceduralAggregate(t *testing.T) {
	path := writeSample(t, 1000)
	rows := sampleRows(1000, 42)
	var sum, minV, maxV float64
	minV, maxV = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		v := r[0].Float()
		sum += v
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	got, err := ProceduralAggregate(path, 0, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-sum/1000) > 1e-9 {
		t.Errorf("avg = %f, want %f", got, sum/1000)
	}
	if got, _ := ProceduralAggregate(path, 0, AggMin); got != minV {
		t.Errorf("min = %f, want %f", got, minV)
	}
	if got, _ := ProceduralAggregate(path, 0, AggMax); got != maxV {
		t.Errorf("max = %f, want %f", got, maxV)
	}
	if _, err := ProceduralAggregate(path, 99, AggMin); err == nil {
		t.Error("out-of-range column must error")
	}
}

// openSource binds the sample file through the format driver, as the
// engine would.
func openSource(t *testing.T, path string, env format.Env) *Source {
	t.Helper()
	tbl, err := schema.New("obs", []schema.Column{
		{Name: "mag", Type: datum.Float},
		{Name: "dist", Type: datum.Float},
		{Name: "id", Type: datum.Int},
		{Name: "flags", Type: datum.Int},
	}, path, schema.FITS)
	if err != nil {
		t.Fatal(err)
	}
	src, err := driver{}.Open(tbl, env)
	if err != nil {
		t.Fatal(err)
	}
	s := src.(*Source)
	t.Cleanup(func() { s.Close() })
	return s
}

// drainScan runs one scan through the Source API and returns its rows.
func drainScan(t *testing.T, s *Source, cols []int, conjuncts []expr.Expr) []exec.Row {
	t.Helper()
	op, err := s.OpenScan(context.Background(), cols, conjuncts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSourceScanMatchesProcedural(t *testing.T) {
	path := writeSample(t, 2000)
	s := openSource(t, path, format.Env{Cache: true})
	if s.RowCount() != 2000 {
		t.Errorf("RowCount = %d", s.RowCount())
	}

	scanAvg := func() float64 {
		rows := drainScan(t, s, []int{0}, nil)
		var sum float64
		for _, r := range rows {
			sum += r[0].Float()
		}
		return sum / float64(len(rows))
	}

	want, err := ProceduralAggregate(path, 0, AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	got1 := scanAvg()
	if math.Abs(got1-want) > 1e-9 {
		t.Errorf("first scan avg = %f, want %f", got1, want)
	}
	scanned := s.Metrics().TuplesParsed
	if scanned != 2000 {
		t.Errorf("first scan should read 2000 rows, read %d", scanned)
	}
	// Second scan must come from the cache: no new physical reads.
	got2 := scanAvg()
	if got2 != got1 {
		t.Errorf("cached scan differs: %f vs %f", got2, got1)
	}
	if after := s.Metrics().TuplesParsed; after != scanned {
		t.Errorf("second scan read the file again (%d -> %d rows)", scanned, after)
	}
	if s.Metrics().CacheBytes == 0 {
		t.Error("cache should hold the column")
	}
}

func TestSourceScanWithPredicate(t *testing.T) {
	path := writeSample(t, 300)
	s := openSource(t, path, format.Env{Cache: true})
	// WHERE id < 10 — predicate over column 2, output column 0.
	pred := &expr.BinOp{Op: expr.Lt, L: &expr.ColRef{Index: 2}, R: &expr.Const{D: datum.NewInt(10)}}
	rows := drainScan(t, s, []int{0}, []expr.Expr{pred})
	if len(rows) != 10 {
		t.Errorf("predicate scan rows = %d, want 10", len(rows))
	}
}

func TestSourcePartialCacheThenFull(t *testing.T) {
	path := writeSample(t, 100)
	s := openSource(t, path, format.Env{Cache: true})
	// Scan column 0 only; then a query over columns 0 and 1 must re-read
	// the file (column 1 uncached) and still be correct.
	drainScan(t, s, []int{0}, nil)
	afterFirst := s.Metrics().TuplesParsed
	rows := drainScan(t, s, []int{0, 1}, nil)
	if len(rows) != 100 || s.Metrics().TuplesParsed == afterFirst {
		t.Error("second scan should touch the file for the uncached column")
	}
	want := sampleRows(100, 42)
	for i, r := range rows {
		if r[0].Float() != want[i][0].Float() || r[1].Float() != want[i][1].Float() {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestSourceBindingValidation(t *testing.T) {
	path := writeSample(t, 10)
	// Wrong arity.
	tbl, err := schema.New("obs", []schema.Column{{Name: "mag", Type: datum.Float}}, path, schema.FITS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (driver{}).Open(tbl, format.Env{}); err == nil {
		t.Error("column-count mismatch must error")
	}
	// Wrong type.
	tbl2, err := schema.New("obs", []schema.Column{
		{Name: "mag", Type: datum.Int}, // file stores Float64
		{Name: "dist", Type: datum.Float},
		{Name: "id", Type: datum.Int},
		{Name: "flags", Type: datum.Int},
	}, path, schema.FITS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (driver{}).Open(tbl2, format.Env{}); err == nil {
		t.Error("type mismatch must error")
	}
}
