package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/qtrace"
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

// csvDriver registers the CSV engine as the "csv" format. CSV is the only
// built-in format the load-first comparator can bulk-load.
type csvDriver struct{}

// Open implements format.Driver.
func (csvDriver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	if env.LoadFirst() {
		return openHeapTable(tbl, env)
	}
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

// heapTable is the load-first comparator (a conventional DBMS) as a
// format source: the table bulk-loaded into slotted heap pages
// (internal/storage) with the statistics ANALYZE gathered during the
// load. Its State keeps no map, cache or statistics. Scans are the
// column-scan frame over a heapLoader and hold the table lock shared for
// their whole life, so Invalidate — exclusive — waits for them before it
// drops the heap.
type heapTable struct {
	*format.State
	path string
	rel  atomic.Pointer[storage.Relation] // nil from Invalidate until the next scan reloads
}

// openHeapTable bulk-loads the table: the full up-front cost a
// conventional DBMS pays before its first query.
func openHeapTable(tbl *schema.Table, env format.Env) (*heapTable, error) {
	dir := env.DataDir
	if dir == "" {
		dir = filepath.Dir(tbl.Path)
	}
	env.Statistics = false // ANALYZE runs during the load
	h := &heapTable{State: format.NewState(tbl, env), path: filepath.Join(dir, tbl.Name+".heap")}
	if err := h.load(); err != nil {
		return nil, err
	}
	return h, nil
}

// load (re)builds the heap from the raw file. Callers must hold Lk
// exclusively, or own h alone.
func (h *heapTable) load() error {
	rel, err := storage.LoadCSV(h.Tbl, h.path, h.Env.Pool)
	if err != nil {
		return fmt.Errorf("core: loading table %s: %w", h.Tbl.Name, err)
	}
	h.rel.Store(rel)
	h.Rows.Store(rel.Stats.RowCount())
	return nil
}

// Stats implements format.Source: the statistics of the last load.
func (h *heapTable) Stats() *stats.Table {
	if rel := h.rel.Load(); rel != nil {
		return rel.Stats
	}
	return nil
}

// OpenScan implements format.Source: a heap scan under a shared hold, or,
// after Invalidate dropped the heap, a reload under the exclusive hold
// that then downgrades and scans.
func (h *heapTable) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	scan := func(rel *storage.Relation) exec.Operator {
		return format.NewColumnScan(ctx, h.State, cols, conjuncts, &heapLoader{heap: rel.Heap})
	}
	shared := func() (exec.Operator, error) {
		if rel := h.rel.Load(); rel != nil {
			return scan(rel), nil
		}
		return nil, nil
	}
	exclusive := func() (exec.Operator, bool, error) {
		if h.rel.Load() == nil {
			if err := h.load(); err != nil {
				return nil, false, err
			}
		}
		return scan(h.rel.Load()), true, nil
	}
	gs := format.NewGuardedScan(ctx, h.Lk, format.OutputSchema(h.Tbl, cols), shared, exclusive)
	gs.SetSharedAccess(qtrace.PhaseRawScan, "heap")
	return gs, nil
}

// Invalidate implements format.Source: it waits for scans of the table in
// flight, then closes and removes the heap. The next scan reloads it.
func (h *heapTable) Invalidate() {
	if err := h.Lk.Lock(context.Background()); err == nil {
		h.drop(true)
		h.Lk.Unlock()
	}
}

// Close implements format.Source; the heap file stays on disk.
func (h *heapTable) Close() error { return h.drop(false) }

// drop detaches the heap from the source and closes it, removing the
// file when asked.
func (h *heapTable) drop(remove bool) error {
	rel := h.rel.Swap(nil)
	h.Rows.Store(-1)
	if rel == nil {
		return nil
	}
	err := rel.Heap.Close()
	if remove {
		_ = os.Remove(rel.Heap.Path())
	}
	return err
}

// heapLoader is the format.ColumnLoader of a heap scan: it deforms tuples
// only up to the last needed column, as row stores do, and unpins its
// page after every batch, so a scan stopped early (LIMIT, error) leaves
// no frame pinned.
type heapLoader struct {
	heap   *storage.HeapFile
	it     *storage.Iterator
	needed []int
}

// Open implements format.ColumnLoader.
func (l *heapLoader) Open(needed []int) (int, error) {
	upTo := 0
	for _, c := range needed {
		upTo = max(upTo, c)
	}
	l.it, l.needed = l.heap.ScanPrefix(upTo), needed
	return int(l.heap.Rows()), nil
}

// Load implements format.ColumnLoader.
func (l *heapLoader) Load(cols [][]datum.Datum, row, n int, _ *qtrace.Counts) error {
	defer l.it.Release()
	for i := range n {
		tup, err := l.it.Next()
		if err == io.EOF {
			return fmt.Errorf("core: heap %s ended at row %d of %d", l.heap.Path(), row+i, l.heap.Rows())
		}
		if err != nil {
			return err
		}
		for _, c := range l.needed {
			cols[c][i] = tup[c]
		}
	}
	return nil
}

// End implements format.ColumnLoader.
func (l *heapLoader) End() {}
