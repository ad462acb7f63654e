package main

import (
	"fmt"
	"time"

	"nodb"
	"nodb/internal/tpch"
)

// warmWorkload is warm_analytics: one engine, everything cached, repeated
// passes over eight TPC-H queries plus one 10 %-selective filter+project
// over lineitem. Budgets are unlimited (the working set fits), so the
// executor (hash aggregation, hash join, sort), the kernels and the
// cache's batch reads do the work. A measured pass must parse no tuple, so
// tokenizer work cannot hide here.
type warmWorkload struct {
	cfg     *runConfig
	dir     string
	db      *nodb.DB
	queries []*namedQuery
}

type namedQuery struct {
	name string
	sql  string
	want digest
}

// filterProjectSQL keeps one lineitem row in ten (l_quantity is uniform on
// 1..50) and computes one expression per surviving row.
const filterProjectSQL = `SELECT l_orderkey, l_extendedprice * (1 - l_discount), l_shipdate
	FROM lineitem WHERE l_quantity <= 5`

func warmQueries() []*namedQuery {
	var qs []*namedQuery
	for _, name := range tpch.QueryOrder {
		qs = append(qs, &namedQuery{name: name, sql: tpch.Queries[name]})
	}
	return append(qs, &namedQuery{name: "filter_project", sql: filterProjectSQL})
}

func newWarmWorkload(cfg *runConfig) *warmWorkload {
	return &warmWorkload{cfg: cfg, queries: warmQueries()}
}

// warmColumns are the columns the nine queries read, per table. One organic
// pass cannot cache them all: a filtered scan caches a column only for the
// rows that reached it, so conjunctive queries keep re-reading the raw file.
// Set-up therefore runs one pass (statistics, plan skeletons, kernels), asks
// the engine to prewarm exactly these columns, and checks that a further
// pass parses nothing.
var warmColumns = map[string][]string{
	"lineitem": {"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
		"l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate", "l_receiptdate",
		"l_shipinstruct", "l_shipmode"},
	"orders":   {"o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority", "o_shippriority"},
	"customer": {"c_custkey", "c_name", "c_address", "c_nationkey", "c_phone", "c_acctbal", "c_mktsegment", "c_comment"},
	"part":     {"p_partkey", "p_brand", "p_type", "p_size", "p_container"},
	"nation":   {"n_nationkey", "n_name"},
}

func (w *warmWorkload) pass() error {
	for _, q := range w.queries {
		if _, err := queryDigest(w.db, q.sql); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.name, err)
		}
	}
	return nil
}

func (w *warmWorkload) prepare(dir string) error {
	w.dir = dir
	cat, err := genTPCH(dir, w.cfg.scale.tpchSF, w.cfg.seed)
	if err != nil {
		return err
	}
	if w.db, err = nodb.Open(cat, nodb.Options{}); err != nil {
		return err
	}
	if err := w.pass(); err != nil {
		return err
	}
	for table, cols := range warmColumns {
		if err := w.db.Prewarm(table, cols...); err != nil {
			return err
		}
	}
	before := w.db.Stats().TuplesParsed
	if err := w.pass(); err != nil {
		return err
	}
	if parsed := w.db.Stats().TuplesParsed - before; parsed != 0 {
		return fmt.Errorf("warm-up: a pass still parses %d tuples after prewarming", parsed)
	}
	return nil
}

func (w *warmWorkload) release() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}

func (w *warmWorkload) expect() error {
	cat, err := tpchCatalog(w.dir)
	if err != nil {
		return err
	}
	ref, err := nodb.Open(cat, oracleOptions())
	if err != nil {
		return err
	}
	defer ref.Close()
	for _, q := range w.queries {
		if q.want, err = queryDigest(ref, q.sql); err != nil {
			return fmt.Errorf("oracle %s: %w", q.name, err)
		}
	}
	return nil
}

func (w *warmWorkload) measure(d time.Duration, tr *tracer, st *opStats) error {
	st.eng.add(w.db.Stats(), -1)
	begin := time.Now()
	for time.Since(begin) < d {
		op := st.newOp()
		t0 := time.Now()
		root := tr.begin("op", 0, op)
		var firstRow time.Duration
		var rows int64
		why := ""
		for i, q := range w.queries {
			got, first, err := runQuery(w.db, tr, root, op, st, t0, q.sql)
			if i == 0 {
				firstRow = first
			}
			rows += got.Rows
			switch {
			case err != nil:
				why = q.name + ": " + err.Error()
			case !q.want.matches(got):
				why = fmt.Sprintf("%s: got %v want %v", q.name, got, q.want)
			}
		}
		tr.end(root)
		st.record(time.Since(t0), firstRow, rows, why)
	}
	st.wall += time.Since(begin)
	st.eng.add(w.db.Stats(), +1)
	return nil
}

func (w *warmWorkload) finish(st *opStats) (endState, error) {
	if st.eng.tuplesParsed != 0 {
		st.fail("warm passes parsed %d tuples; the workload must run from the cache alone", st.eng.tuplesParsed)
	}
	var end endState
	for _, t := range w.db.Tables() {
		m := w.db.Metrics(t.Name)
		if m.Rows == 0 && m.PMBytes == 0 && m.CacheBytes == 0 {
			continue // table no query touched
		}
		end.auxBytes += m.PMBytes + m.CacheBytes
		end.rawBytes += fileSize(t.Path)
		st.eng.pmEvictions += m.PMEvictions
	}
	// Write probe: appends to lineitem, the large fully cached table, after
	// every measured answer has been checked.
	err := appendProbe(w.db, st, writeProbeInserts, func(i int) string {
		return fmt.Sprintf(`INSERT INTO lineitem VALUES (%d, 1, 1, 1, 17, 1234.56, 0.05, 0.02, 'N', 'O',
			date '1997-03-0%d', date '1997-03-15', date '1997-03-20', 'NONE', 'MAIL', 'appended by the write probe')`,
			10_000_000+i, 1+i%9)
	})
	return end, err
}
