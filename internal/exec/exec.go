// Package exec implements a batch-at-a-time execution engine: filter,
// project, limit, sort, hash aggregation, sort aggregation and hash join
// operators exchanging column-major batches of datums (Batch). Rows exist
// only at the edge — Drain and Count here, and the client cursor above.
//
// The same operators execute over every access method — in-situ raw-file
// scans, cached binary columns and loaded heap files — mirroring how
// PostgresRaw reuses the unmodified PostgreSQL executor above its raw-file
// scan operator (paper §4.1: "the remaining query plan ... works without
// changes").
package exec

import (
	"io"
	"sort"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// Row is one tuple gathered out of a batch. Gather buffers may be reused
// between calls; holders that keep rows must copy.
type Row = []datum.Datum

// Col describes one output column of an operator.
type Col struct {
	Name string
	Type datum.Type
}

// Operator is the iterator interface every operator and access method
// implements. NextBatch returns io.EOF when the stream is exhausted;
// returned batches are owned by the producer and valid until the next
// call.
type Operator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
	Columns() []Col
}

// Drain runs an operator to completion and returns all live rows (copied).
// It opens and closes the operator.
func Drain(op Operator) ([]Row, error) {
	var out []Row
	err := run(op, func(b *Batch) {
		for k := 0; k < b.Live(); k++ {
			out = append(out, b.Row(k, make(Row, len(b.Cols))))
		}
	})
	return out, err
}

// Count runs an operator to completion, returning only the live row
// count; no row is materialized.
func Count(op Operator) (int64, error) {
	var n int64
	err := run(op, func(b *Batch) { n += int64(b.Live()) })
	return n, err
}

// run opens op, hands every batch to fn and closes op.
func run(op Operator, fn func(*Batch)) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(b)
	}
}

// Values is a fixed in-memory rowset, useful for tests and tiny tables.
type Values struct {
	batchOut
	cols []Col
	rows []Row
	i    int
	b    *Batch
}

// NewValues creates a Values operator.
func NewValues(cols []Col, rows []Row) *Values {
	return &Values{cols: cols, rows: rows}
}

// Open resets the cursor.
func (v *Values) Open() error { v.i = 0; return nil }

// NextBatch packs the next stored rows into a reused batch.
func (v *Values) NextBatch() (*Batch, error) {
	if v.i >= len(v.rows) {
		return nil, io.EOF
	}
	n := min(v.height(), len(v.rows)-v.i)
	v.b = packRows(v.b, v.rows[v.i:v.i+n])
	v.i += n
	return v.b, nil
}

// Close is a no-op.
func (v *Values) Close() error { return nil }

// Columns returns the schema.
func (v *Values) Columns() []Col { return v.cols }

// packRows copies rows (at least one, all of equal width) into b's
// columns, allocating b when nil or of another width, and returns it.
func packRows(b *Batch, rows []Row) *Batch {
	if b == nil || len(b.Cols) != len(rows[0]) {
		b = NewBatch(len(rows[0]), len(rows))
	}
	b.Reset()
	for j := range b.Cols {
		col := b.Cols[j]
		for _, r := range rows {
			col = append(col, r[j])
		}
		b.Cols[j] = col
	}
	b.N = len(rows)
	return b
}

// SortKey orders by an expression over the input row.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort materializes the child and emits its rows in key order; rows with
// equal keys keep their input order.
type Sort struct {
	batchOut
	child Operator
	keys  []SortKey
	rows  []Row
	i     int
	b     *Batch
}

// NewSort wraps child with ORDER BY keys.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys}
}

// Open drains the child, evaluating the keys once per input batch, and
// sorts.
func (s *Sort) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	s.i = 0
	type keyed struct {
		row  Row
		keys Row
	}
	var items []keyed
	kv := make([][]datum.Datum, len(s.keys))
	scratch := make([][]datum.Datum, len(s.keys))
	for {
		b, err := s.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, k := range s.keys {
			if kv[i], err = evalVec(k.E, b, &scratch[i]); err != nil {
				return err
			}
		}
		for k := 0; k < b.Live(); k++ {
			p := k
			if b.Sel != nil {
				p = b.Sel[k]
			}
			ks := make(Row, len(s.keys))
			for i := range kv {
				ks[i] = kv[i][p]
			}
			items = append(items, keyed{row: b.Row(k, make(Row, len(b.Cols))), keys: ks})
		}
	}
	sort.SliceStable(items, func(a, b int) bool {
		for i, k := range s.keys {
			c := datum.Compare(items[a].keys[i], items[b].keys[i])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	s.rows = make([]Row, len(items))
	for i := range items {
		s.rows[i] = items[i].row
	}
	return nil
}

// NextBatch emits the next sorted rows.
func (s *Sort) NextBatch() (*Batch, error) {
	if s.i >= len(s.rows) {
		return nil, io.EOF
	}
	n := min(s.height(), len(s.rows)-s.i)
	s.b = packRows(s.b, s.rows[s.i:s.i+n])
	s.i += n
	return s.b, nil
}

// Close releases the materialized rows.
func (s *Sort) Close() error {
	s.rows = nil
	return nil
}

// Columns passes through the child schema.
func (s *Sort) Columns() []Col { return s.child.Columns() }

// batchOut is the output batch height of an operator that builds its own
// output batches (values, sort, aggregation, join).
type batchOut struct{ size int }

// SetBatchSize sets how many rows each output batch carries at most
// (n <= 0 restores DefaultBatchSize). The planner sets 1 for one-row
// batches when vectorization is off; results are identical for any n.
func (o *batchOut) SetBatchSize(n int) { o.size = n }

func (o *batchOut) height() int {
	if o.size > 0 {
		return o.size
	}
	return DefaultBatchSize
}
