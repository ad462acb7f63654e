package storage

import (
	"fmt"
	"io"

	"nodb/internal/datum"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/stats"
)

// Relation is a loaded table: heap file plus the statistics gathered while
// loading (the loaded-DBMS equivalent of load + ANALYZE).
type Relation struct {
	Table *schema.Table
	Heap  *HeapFile
	Stats *stats.Table
}

// LoadCSV bulk-loads the table's raw CSV file into a fresh heap file at
// heapPath, converting every field to binary and collecting statistics —
// the full up-front cost a conventional DBMS pays before the first query
// can run (paper Fig 1, the "Load" bar).
//
// Rows whose field count does not match the schema produce an error, like
// a COPY failure would.
func LoadCSV(tbl *schema.Table, heapPath string, pool *Pool) (*Relation, error) {
	lr, f, err := scan.OpenFile(tbl.Name, tbl.Path, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer lr.Release()

	w, err := CreateHeap(heapPath, columnTypes(tbl))
	if err != nil {
		return nil, err
	}

	ncols := tbl.NumColumns()
	collectors := make([]*stats.Collector, ncols)
	for i, c := range tbl.Columns {
		collectors[i] = stats.NewCollector(c.Type, int64(i)+1)
	}

	row := make([]datum.Datum, ncols)
	var positions []uint32
	var rows int64
	for {
		line, _, err := lr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		positions = positions[:0]
		var nf int
		positions, nf = scan.Tokenize(line, tbl.Delimiter, -1, positions)
		if nf != ncols {
			return nil, fmt.Errorf("storage: %s row %d has %d fields, schema has %d",
				tbl.Path, rows+1, nf, ncols)
		}
		for i := 0; i < ncols; i++ {
			field := line[positions[i] : positions[i+1]-1]
			d, err := datum.ParseBytes(tbl.Columns[i].Type, field)
			if err != nil {
				return nil, fmt.Errorf("storage: %s row %d col %s: %w",
					tbl.Path, rows+1, tbl.Columns[i].Name, err)
			}
			row[i] = d
			collectors[i].Add(d)
		}
		if err := w.Append(row); err != nil {
			return nil, err
		}
		rows++
	}

	heap, err := w.Finish(pool)
	if err != nil {
		return nil, err
	}
	st := stats.NewTable()
	st.SetRowCount(rows)
	for i := range collectors {
		st.Set(i, collectors[i].Finalize())
	}
	return &Relation{Table: tbl, Heap: heap, Stats: st}, nil
}

// columnTypes extracts the type vector of a table.
func columnTypes(tbl *schema.Table) []datum.Type {
	types := make([]datum.Type, tbl.NumColumns())
	for i, c := range tbl.Columns {
		types[i] = c.Type
	}
	return types
}
