package jsonl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/schema"
)

func TestParseJSONString(t *testing.T) {
	var scratch []byte
	cases := []struct {
		in   string
		want string
	}{
		{`"plain"`, "plain"},
		{`""`, ""},
		{`"a\"b"`, `a"b`},
		{`"tab\there"`, "tab\there"},
		{`"nl\nbs\\sl\/"`, "nl\nbs\\sl/"},
		{`"été"`, "été"},
		{`"😀"`, "😀"}, // surrogate pair
	}
	for _, c := range cases {
		got, next, err := parseJSONString([]byte(c.in), 0, &scratch)
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if string(got) != c.want || next != len(c.in) {
			t.Errorf("%s: got %q next=%d", c.in, got, next)
		}
	}
	for _, bad := range []string{`"unterminated`, `"bad\q"`, `"trunc\`, `nostring`} {
		if _, _, err := parseJSONString([]byte(bad), 0, &scratch); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

func TestSkipJSONValue(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{`123, `, 3},
		{`-1.5e3}`, 6},
		{`true,`, 4},
		{`"s\"x" ,`, 6},
		{`{"a": [1, {"b": "}"}]} ,`, 22},
		{`[1, [2, 3], "]"] }`, 16},
	}
	for _, c := range cases {
		got, err := skipJSONValue([]byte(c.in), 0)
		if err != nil || got != c.want {
			t.Errorf("%s: got %d err %v, want %d", c.in, got, c.want, err)
		}
	}
	for _, bad := range []string{`{"a": 1`, `[1, 2`, `"x`, ``} {
		if _, err := skipJSONValue([]byte(bad), 0); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

// writeSample writes a deterministic JSONL file with id/name/v columns and
// some JSON-specific wrinkles (key order shuffles, nulls, missing fields,
// nested extras, blank line).
func writeSample(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "data.jsonl")
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, `{"id": %d, "name": "n%d", "v": %g}`+"\n", i, i%7, float64(i)/2)
		case 1:
			// Key order shuffled, nested extra field to skip.
			fmt.Fprintf(&sb, `{"v": %g, "extra": {"deep": [1, "}"]}, "name": "n%d", "id": %d}`+"\n", float64(i)/2, i%7, i)
		case 2:
			// Null value.
			fmt.Fprintf(&sb, `{"id": %d, "name": null, "v": %g}`+"\n", i, float64(i)/2)
		case 3:
			// Missing field (v absent -> NULL).
			fmt.Fprintf(&sb, `{"id": %d, "name": "n%d"}`+"\n", i, i%7)
		}
		if i == n/2 {
			sb.WriteString("\n") // blank line: skipped
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openSource(t *testing.T, path string, env format.Env) *Source {
	t.Helper()
	tbl, err := schema.New("events", []schema.Column{
		{Name: "id", Type: datum.Int},
		{Name: "name", Type: datum.Text},
		{Name: "v", Type: datum.Float},
	}, path, schema.JSONL)
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

func pmcEnv() format.Env {
	return format.Env{PosMap: true, AttrPointers: true, Cache: true}
}

func TestScanShapesAndNulls(t *testing.T) {
	path := writeSample(t, t.TempDir(), 8)
	s := openSource(t, path, pmcEnv())
	rows := drainScan(t, s, []int{0, 1, 2}, nil)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Errorf("row %d id = %v", i, r[0])
		}
		switch i % 4 {
		case 2:
			if !r[1].Null() {
				t.Errorf("row %d name should be NULL (explicit null)", i)
			}
		case 3:
			if !r[2].Null() {
				t.Errorf("row %d v should be NULL (absent field)", i)
			}
		default:
			if r[1].Null() || r[2].Null() {
				t.Errorf("row %d unexpectedly NULL: %v", i, r)
			}
		}
	}
	if s.RowCount() != 8 {
		t.Errorf("RowCount = %d", s.RowCount())
	}
	m := s.Metrics()
	if m.TuplesParsed != 8 || m.ShortRows != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestWarmScanUsesMapAndCache: a second scan resolves fields from the
// positional map / cache instead of re-walking objects.
func TestWarmScanUsesMapAndCache(t *testing.T) {
	path := writeSample(t, t.TempDir(), 12)
	s := openSource(t, path, pmcEnv())
	first := drainScan(t, s, []int{0, 2}, nil)
	m1 := s.Metrics()
	if m1.FieldsFromScan == 0 || m1.PMPointers == 0 || m1.CacheBytes == 0 {
		t.Fatalf("cold scan built nothing: %+v", m1)
	}
	second := drainScan(t, s, []int{0, 2}, nil)
	if !reflect.DeepEqual(first, second) {
		t.Error("warm scan differs from cold scan")
	}
	m2 := s.Metrics()
	if m2.TuplesParsed != m1.TuplesParsed {
		t.Errorf("warm scan re-parsed the file: %+v -> %+v", m1, m2)
	}
	if m2.CacheHits <= m1.CacheHits {
		t.Errorf("warm scan should hit the cache: %+v -> %+v", m1, m2)
	}
	// A different column set resolves the new column via the positional
	// map recorded in passing during the first walk.
	s2 := openSource(t, path, pmcEnv())
	drainScan(t, s2, []int{2}, nil) // walk records id/name offsets on the way
	preMap := s2.Metrics().FieldsFromMap
	drainScan(t, s2, []int{0}, nil) // id: from map, no walk
	if got := s2.Metrics().FieldsFromMap; got <= preMap {
		t.Errorf("positional map unused for new column: %d -> %d", preMap, got)
	}
}

// TestParallelMatchesSequential: partitioned scans are bit-identical to
// the sequential pass for any worker count, and the merged structures
// serve identical warm scans.
func TestParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir, 1000)
	ref := openSource(t, path, pmcEnv())
	pred := &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 2}, R: &expr.Const{D: datum.NewFloat(100)}}
	wantCold := drainScan(t, ref, []int{0, 2, 1}, []expr.Expr{pred})
	wantWarm := drainScan(t, ref, []int{0, 2, 1}, []expr.Expr{pred})
	refM := ref.Metrics()

	for _, w := range []int{1, 2, 8} {
		env := pmcEnv()
		env.Parallelism = w
		s := openSource(t, path, env)
		gotCold := drainScan(t, s, []int{0, 2, 1}, []expr.Expr{pred})
		if !reflect.DeepEqual(gotCold, wantCold) {
			t.Fatalf("workers %d: cold rows differ", w)
		}
		gotWarm := drainScan(t, s, []int{0, 2, 1}, []expr.Expr{pred})
		if !reflect.DeepEqual(gotWarm, wantWarm) {
			t.Fatalf("workers %d: warm rows differ", w)
		}
		if m := s.Metrics(); m != refM {
			t.Errorf("workers %d: metrics differ\nseq: %+v\npar: %+v", w, refM, m)
		}
	}
}

// TestScanErrorsLocateRows: malformed JSON and type mismatches report the
// absolute row, for any worker count.
func TestScanErrorsLocateRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.jsonl")
	body := `{"id": 1, "name": "a", "v": 1}
{"id": 2, "name": "b", "v": 2}
{"id": "oops", "name": "c", "v": 3}
{"id": 4, "name": "d", "v": 4}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		env := pmcEnv()
		env.Parallelism = w
		s := openSource(t, path, env)
		op, err := s.OpenScan(context.Background(), []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = exec.Drain(op)
		if err == nil || !strings.Contains(err.Error(), "row 3") {
			t.Errorf("workers %d: error should locate row 3: %v", w, err)
		}
	}
	// Structurally broken JSON.
	path2 := filepath.Join(dir, "broken.jsonl")
	if err := os.WriteFile(path2, []byte("{\"id\": 1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openSource(t, path2, pmcEnv())
	op, err := s.OpenScan(context.Background(), []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(op); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("broken JSON should locate row 2: %v", err)
	}
}

// TestSelectiveTokenizing: a query touching only the first key of wide
// objects must not walk the rest of the line.
func TestSelectiveTokenizing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.jsonl")
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, `{"id": %d, "name": "n", "v": 1, "junk": "%s"}`+"\n", i, strings.Repeat("x", 100))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openSource(t, path, pmcEnv())
	drainScan(t, s, []int{0}, nil)
	m := s.Metrics()
	// Only id was needed and it is the first key: the walk must stop there,
	// never recording offsets for name/v.
	if m.PMPointers > 2*50 {
		t.Errorf("selective tokenizing recorded too much: %+v", m)
	}
}

// TestAppendPickedUp: growth of the file extends the table on the next
// scan (the shared Refresh reconciliation).
func TestAppendPickedUp(t *testing.T) {
	dir := t.TempDir()
	path := writeSample(t, dir, 8)
	s := openSource(t, path, pmcEnv())
	if got := len(drainScan(t, s, []int{0}, nil)); got != 8 {
		t.Fatalf("initial rows = %d", got)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"id": 100, "name": "new", "v": 9.5}`+"\n")
	f.Close()
	rows := drainScan(t, s, []int{0, 2}, nil)
	if len(rows) != 9 || rows[8][0].Int() != 100 || rows[8][1].Float() != 9.5 {
		t.Errorf("after append: %v", rows)
	}
}
