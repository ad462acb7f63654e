package format

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
)

type stubDriver struct{ name string }

func (d stubDriver) Open(tbl *schema.Table, env Env) (Source, error) { return nil, nil }

// The real adapters register from their own packages, which this package
// cannot import (they import it); tests that declare csv tables need the
// name present.
func init() { Register("csv", stubDriver{name: "csv"}) }

func TestRegistry(t *testing.T) {
	Register("stub-fmt", stubDriver{name: "stub-fmt"})
	d, err := Lookup(schema.Format("STUB-FMT"))
	if err != nil {
		t.Fatal(err)
	}
	if d != (stubDriver{name: "stub-fmt"}) {
		t.Errorf("Lookup returned %v, want the registered driver", d)
	}
	if _, err := Lookup(schema.Format("no-such-format")); err == nil {
		t.Fatal("unknown format must error")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, `"no-such-format"`) || !strings.Contains(msg, "stub-fmt") {
			t.Errorf("error should name the format and the registered ones: %v", msg)
		}
	}
	found := false
	for _, n := range Names() {
		if n == "stub-fmt" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v missing stub-fmt", Names())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	Register("stub-fmt", stubDriver{})
}

// TestSchemaValidatorHook: the registry's init installed the schema-side
// validator, so declaring a table in an unregistered format fails with a
// schema error naming the registered formats.
func TestSchemaValidatorHook(t *testing.T) {
	_, err := schema.New("t", []schema.Column{{Name: "a", Type: datum.Int}}, "t.xml", schema.Format("xml"))
	if err == nil {
		t.Fatal("unregistered format must be rejected at declaration time")
	}
	if !strings.HasPrefix(err.Error(), "schema:") || !strings.Contains(err.Error(), "registered formats") {
		t.Errorf("error = %v", err)
	}
}

func TestNeededColumnsAndOutputSchema(t *testing.T) {
	tbl, err := schema.New("t", []schema.Column{
		{Name: "a", Type: datum.Int},
		{Name: "b", Type: datum.Float},
		{Name: "c", Type: datum.Text},
	}, "t.csv", schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	got := NeededColumns([]int{2, 0, 2}, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("NeededColumns = %v", got)
	}
	cols := OutputSchema(tbl, []int{1})
	if len(cols) != 1 || cols[0].Name != "b" || cols[0].Type != datum.Float {
		t.Errorf("OutputSchema = %v", cols)
	}
}

// fakePart is a partition worker's range in the PartitionedScan tests:
// it emits vals (forever when endless), then fails with fail or reaches
// EOF, setting its shard's row count. Close counts the emitted rows as
// parsed tuples into the shard.
type fakePart struct {
	sh      *State
	vals    []int64
	endless bool
	fail    error
	delay   time.Duration // before Open returns
	started chan struct{} // closed by Open when non-nil
	next    int
	emitted int64
}

func (f *fakePart) Open() error {
	time.Sleep(f.delay)
	if f.started != nil {
		close(f.started)
	}
	return nil
}

func (f *fakePart) Fill(b *exec.Batch, n int) error {
	for b.N < n {
		if f.next == len(f.vals) {
			switch {
			case f.endless:
				f.next = 0
			case f.fail != nil:
				return f.fail
			default:
				f.sh.Rows.Store(int64(len(f.vals)))
				return io.EOF
			}
		}
		b.Cols[0] = append(b.Cols[0], datum.NewInt(f.vals[f.next]))
		b.N++
		f.next++
		f.emitted++
	}
	return nil
}

func (f *fakePart) Shard() *State { return f.sh }

func (f *fakePart) Close() error {
	var c qtrace.Counts
	c[qtrace.CtrTuplesParsed] = f.emitted
	f.sh.Counters.Flush(nil, &c)
	return nil
}

// partitionedFixture returns a refreshed table over a real file (the
// clean merge checks the file is unchanged) and a PartitionedScan over
// the given parts, whose release sets *released.
func partitionedFixture(t *testing.T, parts func(st *State) []*fakePart, released *bool) (*State, *PartitionedScan) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := schema.New("t", []schema.Column{{Name: "v", Type: datum.Int}}, path, schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(tbl, Env{})
	if err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	fakes := parts(st)
	op := st.NewPartitionedScan(context.Background(), []int{0}, len(fakes), func(workers int) ([]Part, func() error, error) {
		if workers != len(fakes) {
			t.Errorf("split asked for %d workers, want %d", workers, len(fakes))
		}
		out := make([]Part, len(fakes))
		for i, f := range fakes {
			out[i] = f
		}
		return out, func() error { *released = true; return nil }, nil
	})
	return st, op
}

// drainAll pulls op until it reports an error or EOF.
func drainAll(op exec.Operator) ([]int64, error) {
	var got []int64
	for {
		b, err := op.NextBatch()
		if err != nil {
			return got, err
		}
		for k := 0; k < b.Live(); k++ {
			got = append(got, b.Cols[0][k].Int())
		}
	}
}

// TestPartitionedScanOrderAndMerge: parts drain in file order even when
// the earlier ones are slower; after the full drain the shards merge
// once — counters folded, row count published — and EOF is sticky.
func TestPartitionedScanOrderAndMerge(t *testing.T) {
	var released bool
	st, op := partitionedFixture(t, func(st *State) []*fakePart {
		parts := make([]*fakePart, 3)
		for i := range parts {
			parts[i] = &fakePart{sh: st.Shard(), vals: []int64{int64(10 * i), int64(10*i + 1)},
				delay: time.Duration(2-i) * 2 * time.Millisecond}
		}
		return parts
	}, &released)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	got, err := drainAll(op)
	if err != io.EOF {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 10, 11, 20, 21}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order: got %v want %v", got, want)
	}
	if _, err := op.NextBatch(); err != io.EOF {
		t.Errorf("second EOF = %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	m := st.Metrics()
	if m.Rows != 6 || m.TuplesParsed != 6 {
		t.Errorf("rows %d, tuples parsed %d: want one clean merge of all parts (6, 6)", m.Rows, m.TuplesParsed)
	}
	if !released {
		t.Error("release must run on Close")
	}
}

// TestPartitionedScanEarlyClose: closing before the drain merges only the
// drained prefix, publishes no row count and runs release.
func TestPartitionedScanEarlyClose(t *testing.T) {
	var released bool
	started := make(chan struct{})
	st, op := partitionedFixture(t, func(st *State) []*fakePart {
		return []*fakePart{
			{sh: st.Shard(), vals: []int64{1}},
			{sh: st.Shard(), vals: []int64{2}, endless: true, started: started},
		}
	}, &released)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.NextBatch(); err != nil {
		t.Fatal(err)
	}
	<-started // part 1 definitely running
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if m := st.Metrics(); m.Rows != -1 || m.TuplesParsed != 1 {
		t.Errorf("rows %d, tuples parsed %d: want only part 0 merged, nothing published (-1, 1)", m.Rows, m.TuplesParsed)
	}
	if !released {
		t.Error("release must run on Close")
	}
}

// TestPartitionedScanRowError: a worker's RowError surfaces after the
// earlier parts' rows, its row rebased past their row counts, and the
// pass publishes nothing.
func TestPartitionedScanRowError(t *testing.T) {
	var released bool
	st, op := partitionedFixture(t, func(st *State) []*fakePart {
		return []*fakePart{
			{sh: st.Shard(), vals: []int64{1, 2, 3, 4, 5}},
			{sh: st.Shard(), vals: []int64{6, 7, 8, 9, 10, 11, 12}},
			{sh: st.Shard(), vals: []int64{13}, fail: &RowError{Format: "csv", Table: "t", Row: 2, Cause: fmt.Errorf("bad")}},
		}
	}, &released)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	got, err := drainAll(op)
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	var re *RowError
	if !errors.As(err, &re) || re.Row != 14 {
		t.Fatalf("err = %v, want a RowError at row 14 (2 + 5 + 7)", err)
	}
	if len(got) != 12 {
		t.Errorf("%d rows before the error, want the 12 of parts 0 and 1", len(got))
	}
	if st.RowCount() != -1 {
		t.Errorf("row count %d published by a failed pass", st.RowCount())
	}
}

// TestGuardedScanSharedOverlap: two guarded scans whose shared callback
// serves them hold the lock shared simultaneously.
func TestGuardedScanSharedOverlap(t *testing.T) {
	lk := NewTableLock()
	cols := []exec.Col{{Name: "v", Type: datum.Int}}
	mk := func() *GuardedScan {
		return NewGuardedScan(context.Background(), lk, cols,
			func() (exec.Operator, error) { return stubScanOp{cols}, nil },
			func() (exec.Operator, bool, error) { t.Fatal("exclusive path must not run"); return nil, false, nil },
		)
	}
	a, b := mk(), mk()
	if err := a.Open(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		if err := b.Open(); err != nil {
			done <- err
			return
		}
		done <- b.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second shared scan blocked behind the first (no overlap)")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

type stubScanOp struct{ cols []exec.Col }

func (s stubScanOp) Open() error                     { return nil }
func (s stubScanOp) Close() error                    { return nil }
func (s stubScanOp) Columns() []exec.Col             { return s.cols }
func (s stubScanOp) NextBatch() (*exec.Batch, error) { return nil, io.EOF }
func (s stubScanOp) SetRowBudget(int64)              {}
