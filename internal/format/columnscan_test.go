package format

import (
	"context"
	"io"
	"reflect"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
)

// fakeLoader serves column 0 from vals, one parsed tuple per loaded row,
// and records how far the frame asked it to load and how often the range
// ended.
type fakeLoader struct {
	vals  []int64
	upto  int // highest row loaded, exclusive
	ended int
}

func (f *fakeLoader) Open(needed []int) (int, error) { return len(f.vals), nil }

func (f *fakeLoader) Load(cols [][]datum.Datum, row, n int, c *qtrace.Counts) error {
	for i := range n {
		cols[0][i] = datum.NewInt(f.vals[row+i])
	}
	f.upto = max(f.upto, row+n)
	c[qtrace.CtrTuplesParsed] += int64(n)
	return nil
}

func (f *fakeLoader) End() { f.ended++ }

// TestColumnScanFrame pins the batch loop both binary producers (the cache
// scan and the FITS pass) share, over a fake loader with 4-row batches.
func TestColumnScanFrame(t *testing.T) {
	tbl, err := schema.New("t", []schema.Column{{Name: "v", Type: datum.Int}}, "t.csv", schema.CSV)
	if err != nil {
		t.Fatal(err)
	}
	nonNeg := &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 0, Type: datum.Int}, R: &expr.Const{D: datum.NewInt(0)}}
	// The first batch survives whole, the second (rows 4..7) fails the
	// conjunct whole, the last two mix; 8 survivors never line up with
	// 3-row Fill messages.
	vals := []int64{0, 1, 2, 3, -4, -5, -6, -7, 8, -9, 10, 11, -12, 13}
	var want []int64
	for _, v := range vals {
		if v >= 0 {
			want = append(want, v)
		}
	}
	frame := func(conjuncts []expr.Expr) (*State, *fakeLoader, *ColumnScan) {
		st := NewState(tbl, Env{BatchSize: 4})
		l := &fakeLoader{vals: vals}
		s := NewColumnScan(context.Background(), st, []int{0}, conjuncts, l)
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		return st, l, s
	}

	t.Run("limit without conjuncts loads nothing past the budget", func(t *testing.T) {
		_, l, s := frame(nil)
		s.SetRowBudget(6)
		got, err := drainAll(s)
		if err != io.EOF {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, vals[:6]) {
			t.Errorf("rows %v, want %v", got, vals[:6])
		}
		if l.upto != 6 {
			t.Errorf("loader asked for rows up to %d, want 6 (the budget)", l.upto)
		}
		if l.ended != 0 {
			t.Errorf("end-of-range hook ran %d times on a LIMIT stop, want 0", l.ended)
		}
	})

	t.Run("batches without survivors are skipped", func(t *testing.T) {
		_, l, s := frame([]expr.Expr{nonNeg})
		var got []int64
		for {
			b, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Live() == 0 {
				t.Fatal("a batch with no survivors was handed out")
			}
			for k := range b.Live() {
				got = append(got, b.Cols[0][b.Sel[k]].Int())
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows %v, want %v", got, want)
		}
		if l.ended != 1 {
			t.Errorf("end-of-range hook ran %d times at the last row, want 1", l.ended)
		}
	})

	t.Run("fill copies live rows across batch boundaries", func(t *testing.T) {
		_, l, s := frame([]expr.Expr{nonNeg})
		var got []int64
		for {
			b := exec.NewBatch(1, 3)
			err := s.Fill(b, 3)
			for k := range b.N {
				got = append(got, b.Cols[0][k].Int())
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.N != 3 {
				t.Fatalf("Fill returned %d rows before the end, want 3", b.N)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows %v, want %v", got, want)
		}
		if l.ended != 1 {
			t.Errorf("end-of-range hook ran %d times, want 1", l.ended)
		}
	})

	t.Run("counters flush exactly once, at Close", func(t *testing.T) {
		st, _, s := frame([]expr.Expr{nonNeg})
		s.hits = true // the cache scan's accounting
		if _, err := drainAll(s); err != io.EOF {
			t.Fatal(err)
		}
		if c := st.Counters.Load(); c != (qtrace.Counts{}) {
			t.Errorf("counters published before Close: %v", c)
		}
		for range 2 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		c := st.Counters.Load()
		if got := c[qtrace.CtrTuplesParsed]; got != int64(len(vals)) {
			t.Errorf("tuples parsed %d, want %d", got, len(vals))
		}
		// The conjunct reads every loaded row, the output only survivors.
		if got, wantHits := c[qtrace.CtrCacheHits], int64(len(vals)+len(want)); got != wantHits {
			t.Errorf("cache hits %d, want %d", got, wantHits)
		}
	})
}
