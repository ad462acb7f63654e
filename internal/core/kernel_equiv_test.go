package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nodb/internal/tpch"
)

// TestKernelEquivalenceCrossFormat: the compiled kernel path must be
// invisible in results AND in adaptive-structure metrics — for every
// format, worker count, and cold/warm pass, kernels on and off produce
// byte-identical rows and equal per-table metrics.
func TestKernelEquivalenceCrossFormat(t *testing.T) {
	const n = 700
	for _, table := range []string{"obs_csv", "obs_fits", "obs_jsonl"} {
		t.Run(table, func(t *testing.T) {
			// Reference: kernels disabled, sequential.
			ref := openEngine(t, formatFixture(t, t.TempDir(), n), Options{
				Mode: ModePMCache, Parallelism: 1, DisableKernels: true, Statistics: true,
			})
			var want []*Result
			var wantM []TableMetrics
			for pass := 0; pass < 2; pass++ { // cold then warm (cache-scan) pass
				for _, q := range crossFormatQueries {
					want = append(want, mustQuery(t, ref, fmt.Sprintf(q, table)))
					wantM = append(wantM, ref.Metrics(table))
				}
			}
			for _, w := range []int{1, 2, 8} {
				e := openEngine(t, formatFixture(t, t.TempDir(), n), Options{
					Mode: ModePMCache, Parallelism: w, Statistics: true,
				})
				i := 0
				for pass := 0; pass < 2; pass++ {
					for _, q := range crossFormatQueries {
						got := mustQuery(t, e, fmt.Sprintf(q, table))
						if !reflect.DeepEqual(got.Rows, want[i].Rows) {
							t.Fatalf("workers=%d pass=%d query %q: kernel path differs from generic", w, pass, q)
						}
						if !strings.Contains(q, "LIMIT") {
							if m := e.Metrics(table); m != wantM[i] {
								t.Errorf("workers=%d pass=%d after %q: metrics differ\ngeneric: %+v\nkernels: %+v",
									w, pass, q, wantM[i], m)
							}
						}
						i++
					}
				}
			}
		})
	}
}

// TestTPCHKernelEquivalence runs every TPC-H query of the paper's subset
// with kernels on and off across worker counts and cold/warm passes; rows
// must be byte-identical. The DisableVectorized configuration rides along as
// a third column (kernels wrap conjuncts whose scalar path must stay
// untouched).
func TestTPCHKernelEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	newEngine := func(workers int, disableKernels, disableVec bool) *Engine {
		cat, err := tpch.Catalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		return openEngine(t, cat, Options{
			Mode: ModePMCache, Statistics: true, Parallelism: workers,
			DisableKernels: disableKernels, DisableVectorized: disableVec,
		})
	}
	ref := newEngine(1, true, false)
	type key struct {
		name string
		pass int
	}
	want := map[key]*Result{}
	for pass := 0; pass < 2; pass++ {
		for _, name := range tpch.QueryOrder {
			want[key{name, pass}] = mustQuery(t, ref, tpch.Queries[name])
		}
	}
	for _, cfg := range []struct {
		label      string
		workers    int
		disableVec bool
	}{
		{"workers=1", 1, false},
		{"workers=2", 2, false},
		{"workers=8", 8, false},
		{"rowpath", 1, true},
	} {
		t.Run(cfg.label, func(t *testing.T) {
			e := newEngine(cfg.workers, false, cfg.disableVec)
			for pass := 0; pass < 2; pass++ {
				for _, name := range tpch.QueryOrder {
					got := mustQuery(t, e, tpch.Queries[name])
					if !reflect.DeepEqual(got.Rows, want[key{name, pass}].Rows) {
						t.Errorf("%s pass %d: kernel rows differ from generic reference", name, pass)
					}
				}
			}
		})
	}
}

// TestKernelEquivalenceOnFixtureShapes covers the executor shapes the
// wide fixture exercises (typed fast paths, IN/LIKE/IS NULL, residuals,
// aggregation, ORDER BY, LIMIT) across kernels on/off on cold and warm
// scans, including metrics equality.
func TestKernelEquivalenceOnFixtureShapes(t *testing.T) {
	queries := append(append([]string{}, batchEquivQueries...),
		"SELECT name, d FROM wide WHERE name = 'name3' AND d < date '1995-09-01'",
		"SELECT id FROM wide WHERE a = 1 OR b > 900",
		"SELECT id, c / 2.0, 1 - a FROM wide WHERE c >= 10.0 AND c <= 170.0",
	)
	cat := buildFixture(t, t.TempDir(), 900)
	off := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true, DisableKernels: true})
	on := openEngine(t, buildFixture(t, t.TempDir(), 900), Options{Mode: ModePMCache, Statistics: true})
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			want := mustQuery(t, off, q)
			got := mustQuery(t, on, q)
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("pass %d query %q: kernel path differs", pass, q)
			}
			if mw, mg := off.Metrics("wide"), on.Metrics("wide"); mw != mg {
				t.Errorf("pass %d after %q: metrics differ\ngeneric: %+v\nkernels: %+v", pass, q, mw, mg)
			}
		}
	}
}
