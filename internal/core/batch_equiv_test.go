package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nodb/internal/exec"
	"nodb/internal/tpch"
)

// batchEquivQueries covers every shape the vectorized pipeline handles —
// typed filter fast paths, BETWEEN/IN/LIKE/IS NULL, projection arithmetic,
// hash and sort aggregation, ORDER BY, LIMIT truncation, and a residual
// (non-pushable) conjunct.
var batchEquivQueries = []string{
	"SELECT id, name FROM wide WHERE a = 3",
	"SELECT id, c FROM wide WHERE b >= 300 AND c < 150.5",
	"SELECT id, b + 1, c * 2.0 FROM wide WHERE id BETWEEN 40 AND 90",
	"SELECT id FROM wide WHERE a IN (1, 4) AND name LIKE 'name1%'",
	"SELECT id FROM wide WHERE b IS NULL",
	"SELECT count(*), sum(b), avg(c), min(d), max(name) FROM wide",
	"SELECT a, count(*), sum(c) FROM wide GROUP BY a ORDER BY a",
	"SELECT id, d FROM wide WHERE d >= date '1995-03-01' ORDER BY id DESC LIMIT 9",
	"SELECT id FROM wide WHERE 1 = 1 AND id < 25",
}

// batchLimitQueries terminate the scan early. They must return identical
// rows, but cumulative metrics are excluded from comparison: a truncated
// wide batch may have materialized (and counted) up to one batch of rows
// beyond the limit, where one-row batches stop at it — the same reason the
// parallel-scan tests exclude partial-progress counters after LIMIT.
var batchLimitQueries = []string{
	"SELECT id FROM wide LIMIT 5",
	"SELECT id, name FROM wide WHERE a = 3 LIMIT 4",
}

// runQuerySequence executes the query list twice — the first pass scans
// raw (cold), the second exploits whatever the mode cached — snapshotting
// rows and metrics after every query.
func runQuerySequence(t *testing.T, e *Engine, queries []string) ([]*Result, []TableMetrics) {
	t.Helper()
	var results []*Result
	var metrics []TableMetrics
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			results = append(results, mustQuery(t, e, q))
			metrics = append(metrics, e.Metrics("wide"))
		}
	}
	return results, metrics
}

// TestBatchRowEquivalence is the tentpole regression: for every in-situ
// mode, the vectorized batch pipeline must produce byte-identical rows AND
// byte-identical adaptive-structure metrics to DisableVectorized's one-row
// batches, on both cold (raw-file) and warm (cache/positional-map) scans.
func TestBatchRowEquivalence(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 700)
	modes := []Options{
		{Mode: ModePMCache},
		{Mode: ModePMCache, Statistics: true},
		{Mode: ModePM},
		{Mode: ModeCache},
		{Mode: ModeExternalFiles},
		{Mode: ModePMCache, CacheBudget: 1 << 14}, // eviction pressure
	}
	for _, base := range modes {
		rowOpts := base
		rowOpts.DisableVectorized = true
		rowOpts.Parallelism = 1
		batchOpts := base
		batchOpts.Parallelism = 1
		rowEng := openEngine(t, cat, rowOpts)
		batchEng := openEngine(t, cat, batchOpts)
		rowRes, rowM := runQuerySequence(t, rowEng, batchEquivQueries)
		batchRes, batchM := runQuerySequence(t, batchEng, batchEquivQueries)
		for i := range rowRes {
			q := batchEquivQueries[i%len(batchEquivQueries)]
			if !rowsEqual(rowRes[i].Rows, batchRes[i].Rows) {
				t.Fatalf("mode %+v query %q (pass %d): rows differ\nrow:   %v\nbatch: %v",
					base, q, i/len(batchEquivQueries), rowRes[i].Rows, batchRes[i].Rows)
			}
			if rowM[i] != batchM[i] {
				t.Errorf("mode %+v query %q (pass %d): metrics differ\nrow:   %+v\nbatch: %+v",
					base, q, i/len(batchEquivQueries), rowM[i], batchM[i])
			}
		}
		for _, q := range batchLimitQueries {
			a := mustQuery(t, rowEng, q)
			b := mustQuery(t, batchEng, q)
			if !rowsEqual(a.Rows, b.Rows) {
				t.Fatalf("mode %+v query %q: rows differ\nrow:   %v\nbatch: %v", base, q, a.Rows, b.Rows)
			}
		}
	}
}

// joinEquivQueries are the multi-table shapes the batch-native hash join
// carries: 2- and 3-way joins, a residual filter fused into the projection
// and one under an aggregate, GROUP BY above a join (float sums expose any
// change of row order), and a self-join with a column-vs-column residual.
var joinEquivQueries = []string{
	`SELECT o_orderkey, o_orderdate, l_quantity FROM orders, lineitem
		WHERE l_orderkey = o_orderkey AND o_orderdate < date '1993-01-01' AND l_quantity < 10`,
	`SELECT c_name, o_orderkey, l_extendedprice FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND c_mktsegment = 'BUILDING' AND l_shipdate > date '1998-06-01'`,
	`SELECT o_orderkey, l_linenumber FROM orders, lineitem
		WHERE l_orderkey = o_orderkey AND (o_orderpriority = '1-URGENT' OR l_shipmode = 'AIR') AND l_quantity > 48`,
	`SELECT o_orderpriority, count(*), sum(l_extendedprice * (1 - l_discount)) FROM orders, lineitem
		WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate
		AND (o_orderstatus = 'F' OR l_returnflag = 'N')
		GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	`SELECT n_name, count(*), avg(c_acctbal) FROM nation, customer, orders
		WHERE c_nationkey = n_nationkey AND c_custkey = o_custkey GROUP BY n_name ORDER BY n_name`,
	`SELECT count(*), sum(a.o_totalprice) FROM orders a, orders b
		WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey`,
}

// joinLimitQueries stop a join early; rows must match, metrics are not
// compared (see batchLimitQueries).
var joinLimitQueries = []string{
	`SELECT o_orderkey, l_partkey FROM orders, lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45 LIMIT 7`,
	`SELECT c_custkey, o_orderkey, l_linenumber FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey LIMIT 1500`,
}

// TestJoinBatchRowEquivalence: multi-table queries return byte-identical
// rows, order included, whether the join runs over wide batches or over
// DisableVectorized's one-row batches, with
// kernels on or off, for every worker count, cold and warm — and the
// vectorized configurations leave identical adaptive structures behind.
func TestJoinBatchRowEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.002, 11); err != nil {
		t.Fatal(err)
	}
	tables := []string{"nation", "customer", "orders", "lineitem"}
	type snapshot struct {
		rows    [][]exec.Row
		metrics [][]TableMetrics // per non-LIMIT query, per table
	}
	run := func(opts Options) snapshot {
		cat, err := tpch.Catalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts.Mode, opts.Statistics = ModePMCache, true
		e := openEngine(t, cat, opts)
		var s snapshot
		for pass := 0; pass < 2; pass++ { // cold, then warm
			for _, q := range joinEquivQueries {
				s.rows = append(s.rows, mustQuery(t, e, q).Rows)
				var m []TableMetrics
				for _, tbl := range tables {
					m = append(m, e.Metrics(tbl))
				}
				s.metrics = append(s.metrics, m)
			}
		}
		for _, q := range joinLimitQueries {
			s.rows = append(s.rows, mustQuery(t, e, q).Rows)
		}
		return s
	}
	ref := run(Options{Parallelism: 1})
	queries := append(append(append([]string{}, joinEquivQueries...), joinEquivQueries...), joinLimitQueries...)
	for _, vec := range []bool{true, false} {
		for _, kernels := range []bool{true, false} {
			for _, w := range parallelWorkerCounts {
				label := fmt.Sprintf("vectorized=%v kernels=%v workers=%d", vec, kernels, w)
				got := run(Options{Parallelism: w, DisableVectorized: !vec, DisableKernels: !kernels})
				for i := range ref.rows {
					if len(ref.rows[i]) == 0 {
						t.Fatalf("query %q returns no rows; the fixture no longer exercises it", queries[i])
					}
					if !reflect.DeepEqual(got.rows[i], ref.rows[i]) {
						t.Errorf("%s query #%d %q: rows differ from the reference", label, i, queries[i])
					}
				}
				if !vec {
					continue
				}
				for i := range ref.metrics {
					if !reflect.DeepEqual(got.metrics[i], ref.metrics[i]) {
						t.Errorf("%s after query #%d %q: metrics differ\nref: %+v\ngot: %+v",
							label, i, queries[i], ref.metrics[i], got.metrics[i])
					}
				}
			}
		}
	}
}

// TestBatchRowEquivalenceParallel sweeps the worker counts of the
// partitioned scan under the batch pipeline: results must match the
// row-path sequential reference for workers 1, 2 and 8.
func TestBatchRowEquivalenceParallel(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 900)
	queries := []string{
		"SELECT id, a, b FROM wide WHERE a = 3",
		"SELECT count(*), sum(b), avg(c) FROM wide",
		"SELECT a, count(*), min(d) FROM wide GROUP BY a ORDER BY a",
	}
	rowEng := openEngine(t, cat, Options{Mode: ModePMCache, DisableVectorized: true, Parallelism: 1})
	var ref []*Result
	for _, q := range queries {
		ref = append(ref, mustQuery(t, rowEng, q))
	}
	refM := rowEng.Metrics("wide")
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		for qi, q := range queries {
			res := mustQuery(t, e, q)
			if !rowsEqual(ref[qi].Rows, res.Rows) {
				t.Fatalf("workers %d query %q: batch rows differ from row reference", w, q)
			}
		}
		if m := e.Metrics("wide"); m != refM {
			t.Errorf("workers %d: metrics differ\nrow ref: %+v\nbatch:   %+v", w, refM, m)
		}
	}
}

// TestBatchEdgeCaseCSVs runs the malformed-shape corpus (short rows,
// quotes, no trailing newline, embedded empty lines) through both paths.
func TestBatchEdgeCaseCSVs(t *testing.T) {
	long := strings.Repeat("y", 300)
	cases := map[string]string{
		"empty":              "",
		"single line":        "1,alpha\n",
		"single no newline":  "1,alpha",
		"no trailing":        "1,a\n2,b\n3,c",
		"empty lines inside": "1,a\n\n3,c\n",
		"long lines":         "1," + long + "\n2,short\n",
		"quoted fields":      "1,\"hello world\"\n2,\"mid \"\" quote\"\n3,\"tail\n",
		"short rows":         "1\n2,b\n3\n",
	}
	queries := []string{
		"SELECT k, v FROM edge",
		"SELECT k FROM edge WHERE k >= 2",
		"SELECT count(*), max(v) FROM edge",
		"SELECT k FROM edge WHERE v IS NULL",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			cat := edgeCatalog(t, content)
			rowEng := openEngine(t, cat, Options{Mode: ModePMCache, DisableVectorized: true, ScanChunkSize: 64})
			batchEng := openEngine(t, cat, Options{Mode: ModePMCache, ScanChunkSize: 64})
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					a := mustQuery(t, rowEng, q)
					b := mustQuery(t, batchEng, q)
					if !rowsEqual(a.Rows, b.Rows) {
						t.Fatalf("query %q pass %d: rows differ\nrow:   %v\nbatch: %v", q, pass, a.Rows, b.Rows)
					}
					am, bm := rowEng.Metrics("edge"), batchEng.Metrics("edge")
					if am != bm {
						t.Errorf("query %q pass %d: metrics differ\nrow:   %+v\nbatch: %+v", q, pass, am, bm)
					}
				}
			}
		})
	}
}

// TestBatchSizeSweep pins that the batch height knob never changes
// results — including degenerate one-row batches.
func TestBatchSizeSweep(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 300)
	queries := append(append([]string{}, batchEquivQueries...), batchLimitQueries...)
	var ref []*Result
	for _, size := range []int{0, 1, 3, 57, 4096} {
		e := openEngine(t, cat, Options{Mode: ModePMCache, BatchSize: size, Parallelism: 1})
		var res []*Result
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				res = append(res, mustQuery(t, e, q))
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if !rowsEqual(ref[i].Rows, res[i].Rows) {
				t.Fatalf("batch size %d query %q: rows differ", size, queries[i%len(queries)])
			}
		}
	}
}

// TestVectorizedPlanShape pins the DisableVectorized contract from query
// profiles, over a filtered scan, GROUP BY … ORDER BY … LIMIT, a
// two-table join and the same three on a load-first heap: on the default
// engine every scan carries more than one row per batch; with
// DisableVectorized no operator carries more than one live row per batch
// and no compiled kernel runs. Both engines return the same rows.
func TestVectorizedPlanShape(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 3000)
	queries := []string{
		"SELECT id, c FROM wide WHERE a < 4",
		"SELECT a, count(*), sum(c) FROM wide GROUP BY a ORDER BY a DESC LIMIT 3",
		"SELECT x.id, y.c FROM wide x, wide y WHERE x.id = y.b AND x.a < 4",
	}
	for _, mode := range []Mode{ModePMCache, ModeLoadFirst} {
		vec := openEngine(t, cat, Options{Mode: mode, Parallelism: 1})
		row := openEngine(t, cat, Options{Mode: mode, Parallelism: 1, DisableVectorized: true})
		for _, sql := range queries {
			vs, rs := profileQuery(t, vec, sql), profileQuery(t, row, sql)
			for _, sp := range scanSpans(*vs.Plan) {
				if sp.Rows <= sp.Batches {
					t.Errorf("%v %q: default %s carries %d rows in %d batches, want several rows per batch",
						mode, sql, sp.Label, sp.Rows, sp.Batches)
				}
			}
			for _, sp := range spans(*rs.Plan) {
				if sp.Rows > sp.Batches {
					t.Errorf("%v %q: DisableVectorized %s carries %d rows in %d batches, want one-row batches",
						mode, sql, sp.Label, sp.Rows, sp.Batches)
				}
			}
			if rs.Ctrs.KernelBatches != 0 {
				t.Errorf("%v %q: DisableVectorized ran %d compiled kernel batches", mode, sql, rs.Ctrs.KernelBatches)
			}
			if !rowsEqual(mustQuery(t, vec, sql).Rows, mustQuery(t, row, sql).Rows) {
				t.Errorf("%v %q: default and DisableVectorized rows differ", mode, sql)
			}
		}
	}
}

// TestBatchErrorPropagation: a malformed value must surface the same
// located error through the batch pipeline.
func TestBatchErrorPropagation(t *testing.T) {
	cat := edgeCatalog(t, "1,a\n2,b\nbroken,c\n4,d\n")
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		_, err := e.Query("SELECT k FROM edge")
		if err == nil {
			t.Fatalf("workers %d: malformed int must error through the batch path", w)
		} else if !strings.Contains(err.Error(), "row 3") {
			t.Errorf("workers %d: error should locate absolute row 3: %v", w, err)
		}
	}
}
