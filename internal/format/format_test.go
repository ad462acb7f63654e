package format

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/schema"
)

type stubDriver struct{ caps Caps }

func (d stubDriver) Caps() Caps                                      { return d.caps }
func (d stubDriver) Open(tbl *schema.Table, env Env) (Source, error) { return nil, nil }

// The real adapters register from their own packages, which this package
// cannot import (they import it); tests that declare csv tables need the
// name present.
func init() { Register("csv", stubDriver{caps: Caps{Loadable: true}}) }

func TestRegistry(t *testing.T) {
	Register("stub-fmt", stubDriver{caps: Caps{Loadable: true}})
	d, err := Lookup(schema.Format("stub-fmt"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Caps().Loadable {
		t.Error("caps lost through registry")
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

// poolBatches builds a batch with the given int values.
func poolBatch(vals ...int64) *exec.Batch {
	b := exec.NewBatch(1, len(vals))
	for _, v := range vals {
		b.Cols[0] = append(b.Cols[0], datum.NewInt(v))
		b.N++
	}
	return b
}

// TestPoolOrderAndMerge: partitions drain in order, Merge runs once with
// clean=true after a full drain.
func TestPoolOrderAndMerge(t *testing.T) {
	var mu sync.Mutex
	var merges []string
	op := NewPool(context.Background(), PoolConfig{
		Cols:  []exec.Col{{Name: "v", Type: datum.Int}},
		Start: func() (int, error) { return 3, nil },
		Run: func(part int, emit func(*exec.Batch) bool) error {
			// Emit two batches per partition, slower for earlier parts so
			// ordering is genuinely enforced by the merge, not timing.
			time.Sleep(time.Duration(2-part) * 2 * time.Millisecond)
			for k := 0; k < 2; k++ {
				if !emit(poolBatch(int64(part*10 + k))) {
					return ErrStopped
				}
			}
			return nil
		},
		Merge: func(n int, clean bool) error {
			mu.Lock()
			defer mu.Unlock()
			merges = append(merges, fmt.Sprintf("%d/%v", n, clean))
			return nil
		},
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < b.Live(); k++ {
			got = append(got, b.Cols[0][k].Int())
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
	if len(merges) != 1 || merges[0] != "3/true" {
		t.Errorf("merges = %v (want one clean merge of all partitions)", merges)
	}
}

// TestPoolEarlyClose: closing before the drain merges only the drained
// prefix, with clean=false, and releases resources.
func TestPoolEarlyClose(t *testing.T) {
	released := false
	var merges []string
	var mu sync.Mutex
	blocked := make(chan struct{})
	op := NewPool(context.Background(), PoolConfig{
		Cols:  []exec.Col{{Name: "v", Type: datum.Int}},
		Start: func() (int, error) { return 2, nil },
		Run: func(part int, emit func(*exec.Batch) bool) error {
			if part == 0 {
				emit(poolBatch(1))
				return nil // drains immediately
			}
			// Partition 1 keeps emitting until torn down.
			close(blocked)
			for {
				if !emit(poolBatch(2)) {
					return ErrStopped
				}
			}
		},
		Merge: func(n int, clean bool) error {
			mu.Lock()
			defer mu.Unlock()
			merges = append(merges, fmt.Sprintf("%d/%v", n, clean))
			return nil
		},
		Release: func() error { released = true; return nil },
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.NextBatch(); err != nil {
		t.Fatal(err)
	}
	<-blocked // partition 1 definitely started
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(merges) != 1 || merges[0] != "1/false" {
		t.Errorf("merges = %v (want the drained prefix, unclean)", merges)
	}
	if !released {
		t.Error("Release must run on Close")
	}
}

// TestPoolWorkerError: a worker error surfaces through the merged stream.
func TestPoolWorkerError(t *testing.T) {
	op := NewPool(context.Background(), PoolConfig{
		Cols:  []exec.Col{{Name: "v", Type: datum.Int}},
		Start: func() (int, error) { return 2, nil },
		Run: func(part int, emit func(*exec.Batch) bool) error {
			if part == 1 {
				return fmt.Errorf("boom in part %d", part)
			}
			emit(poolBatch(7))
			return nil
		},
		OnError: func(part int, err error) error {
			return fmt.Errorf("part %d: %w", part, err)
		},
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var err error
	for err == nil {
		_, err = op.NextBatch()
	}
	if err == io.EOF || !strings.Contains(err.Error(), "part 1: boom") {
		t.Errorf("err = %v", err)
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
