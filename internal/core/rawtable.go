package core

import (
	"context"
	"io"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/stats"
	"nodb/internal/storage"
)

// rawTable is the CSV format adapter: the in-situ state of one raw file —
// the adaptive positional map, the binary cache and on-the-fly statistics
// (all shared machinery, format.State) — scanned through the shared
// line-scan frame with the CSV field decoder. It implements format.Source
// and format.Appender; the engine reaches it only through the format
// registry.
type rawTable struct {
	*format.State
}

// csvDriver registers the CSV engine as the "csv" format.
type csvDriver struct{}

// Caps implements format.Driver: CSV is the only built-in format the
// conventional load-first baseline can bulk-load.
func (csvDriver) Caps() format.Caps {
	return format.Caps{Loadable: true}
}

// Open implements format.Driver.
func (csvDriver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	return newRawTable(tbl, env), nil
}

func newRawTable(tbl *schema.Table, env format.Env) *rawTable {
	return &rawTable{State: format.NewState(tbl, env)}
}

func newCSVDecoder() format.LineDecoder { return &csvDecoder{} }

// OpenScan implements format.Source. The returned leaf defers the access
// method choice — pure cache scan, parallel partitioned pass, or
// sequential in-situ pass — until Open, when it acquires the table lock
// and can decide against the structures as they exist at execution time
// (by then a concurrent session may already have warmed the table).
func (rt *rawTable) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return rt.OpenLineScan(ctx, cols, conjuncts, newCSVDecoder), nil
}

// Append implements format.Appender: one delimited line per row
// (scan.AppendDatums).
func (rt *rawTable) Append(ctx context.Context, rows [][]datum.Datum) error {
	delim := rt.Tbl.Delimiter
	return rt.AppendRows(ctx, rows, func(buf []byte, row []datum.Datum) []byte {
		return scan.AppendDatums(buf, delim, row)
	})
}

// Close implements format.Source. Scans open the file themselves, so the
// table holds nothing to release.
func (rt *rawTable) Close() error { return nil }

// loadedTable adapts a bulk-loaded heap relation to plan.Table.
type loadedTable struct {
	tbl       *schema.Table
	rel       *storage.Relation
	batchSize int // rows per scan batch (0 = exec.DefaultBatchSize)
}

// Name implements plan.Table.
func (lt *loadedTable) Name() string { return lt.tbl.Name }

// Columns implements plan.Table.
func (lt *loadedTable) Columns() []schema.Column { return lt.tbl.Columns }

// Stats implements plan.Table (ANALYZE ran during load).
func (lt *loadedTable) Stats() *stats.Table { return lt.rel.Stats }

// RowCount implements plan.Table.
func (lt *loadedTable) RowCount() int64 { return lt.rel.Stats.RowCount() }

// Scan implements plan.Table: a sequential page scan with the conjuncts
// evaluated against decoded tuples, projecting the requested ordinals.
func (lt *loadedTable) Scan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	outCols := make([]exec.Col, len(cols))
	for i, c := range cols {
		outCols[i] = exec.Col{Name: lt.tbl.Columns[c].Name, Type: lt.tbl.Columns[c].Type}
	}
	maxNeeded := 0
	for _, c := range format.NeededColumns(cols, conjuncts) {
		if c > maxNeeded {
			maxNeeded = c
		}
	}
	size := lt.batchSize
	if size <= 0 {
		size = exec.DefaultBatchSize
	}
	return &heapScan{ctx: ctx, lt: lt, cols: cols, outCols: outCols, pred: expr.JoinConjuncts(conjuncts),
		maxNeeded: maxNeeded, size: size, budget: -1}, nil
}

// heapScan is the load-first access method. Tuples are deformed only up
// to the last needed column, as row stores do, and qualifying tuples pack
// their requested ordinals into a reused batch. Cancellation is observed
// every few hundred rows.
type heapScan struct {
	ctx       context.Context
	lt        *loadedTable
	cols      []int
	outCols   []exec.Col
	pred      expr.Expr
	maxNeeded int
	size      int
	budget    int64 // LIMIT pushdown; -1 = none
	produced  int64

	it   *storage.Iterator
	tick int
	b    *exec.Batch
}

// SetRowBudget implements exec.RowBudgeter.
func (h *heapScan) SetRowBudget(n int64) { h.budget = n }

// Columns implements exec.Operator.
func (h *heapScan) Columns() []exec.Col { return h.outCols }

// Open starts the page scan.
func (h *heapScan) Open() error {
	h.it = h.lt.rel.Heap.ScanPrefix(h.maxNeeded)
	h.produced = 0
	return nil
}

// NextBatch packs up to one batch of qualifying tuples, never exceeding
// the remaining row budget.
func (h *heapScan) NextBatch() (*exec.Batch, error) {
	target := h.size
	if h.budget >= 0 {
		if rem := h.budget - h.produced; rem < int64(target) {
			target = int(max(rem, 0))
		}
	}
	if h.b == nil {
		h.b = exec.NewBatch(len(h.cols), h.size)
	}
	b := h.b
	b.Reset()
	for b.N < target {
		if h.tick++; h.tick&255 == 0 {
			if err := h.ctx.Err(); err != nil {
				return nil, err
			}
		}
		row, err := h.it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if h.pred != nil {
			ok, err := expr.TruthyResult(h.pred, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for i, c := range h.cols {
			b.Cols[i] = append(b.Cols[i], row[c])
		}
		b.N++
	}
	if b.N == 0 {
		return nil, io.EOF
	}
	h.produced += int64(b.N)
	return b, nil
}

// Close releases the page pin.
func (h *heapScan) Close() error {
	if h.it != nil {
		h.it.Close()
	}
	return nil
}
