package nodb

import (
	"strings"
	"testing"
)

// TestOptionsValidation: invalid option values must be rejected at Open
// with an error naming the offending field — not silently accepted and
// left to misbehave at the first query.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"negative parallelism", Options{Parallelism: -1}, "Parallelism"},
		{"negative pm budget", Options{PositionalMapBudget: -1}, "PositionalMapBudget"},
		{"negative cache budget", Options{CacheBudget: -100}, "CacheBudget"},
		{"unknown mode", Options{Mode: Mode(99)}, "Mode"},
		{"negative mode", Options{Mode: Mode(-1)}, "Mode"},
		{"negative sidecar max bytes", Options{Sidecar: SidecarOptions{MaxBytes: -1}}, "Sidecar.MaxBytes"},
		{"unwritable sidecar dir", Options{Sidecar: SidecarOptions{Enable: true, Dir: "/proc/nodb-no-such-dir"}}, "Sidecar.Dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(testCatalog(t), tc.opts)
			if err == nil {
				db.Close()
				t.Fatalf("Open(%+v) succeeded, want error mentioning %q", tc.opts, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestOptionsZeroAndNormalized: the documented zero-value defaults and
// the smallest legal explicit values must keep working.
func TestOptionsZeroAndNormalized(t *testing.T) {
	for _, opts := range []Options{
		{},               // all defaults
		{Parallelism: 1}, // smallest legal explicit values
		{Sidecar: SidecarOptions{MaxBytes: 1 << 20}}, // budget without Enable is inert but legal
		{Sidecar: SidecarOptions{Enable: true, Dir: t.TempDir()}},
	} {
		db, err := Open(testCatalog(t), opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		if _, err := db.Query("SELECT count(*) FROM trips"); err != nil {
			t.Fatalf("query with %+v: %v", opts, err)
		}
		db.Close()
	}
}

// TestParseMode: every alias of every in-situ mode resolves,
// case-insensitively; anything else is an error naming the input.
func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{
		"pm+cache": ModePMCache, "pmcache": ModePMCache, "pm+c": ModePMCache, "PM+Cache": ModePMCache,
		"pm": ModePM, "PM": ModePM,
		"cache": ModeCache, "c": ModeCache, "Cache": ModeCache,
		"external-files": ModeExternalFiles, "external": ModeExternalFiles, "baseline": ModeExternalFiles,
		"External-Files": ModeExternalFiles, "BASELINE": ModeExternalFiles,
	} {
		if got, err := ParseMode(name); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// The load-first comparator is set by programs (the paper figures,
	// examples/tpch), never by name.
	for _, bad := range []string{"", "warp", "pm+", "load first", "load-first", "loaded", "LOAD-FIRST"} {
		if _, err := ParseMode(bad); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("ParseMode(%q) error = %v, want unknown mode", bad, err)
		}
	}
}

// TestStatsSurface: DB.Stats must reflect statement-cache effectiveness
// and cold/warm scan accounting across a cold-then-warm query pair.
func TestStatsSurface(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// First execution parses the raw file cold and fills the cache for
	// both columns; the second is served read-only from the cache (warm).
	// The filtered query exercises the kernel compiler.
	const q = "SELECT city, id FROM trips"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT id FROM trips WHERE id < 50"); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.StmtCache.Hits < 1 {
		t.Errorf("stmt cache hits = %d, want >= 1 (second query reuses the parse)", s.StmtCache.Hits)
	}
	if s.StmtCache.Misses < 1 {
		t.Errorf("stmt cache misses = %d, want >= 1 (first query)", s.StmtCache.Misses)
	}
	if s.ColdScans < 1 {
		t.Errorf("cold scans = %d, want >= 1", s.ColdScans)
	}
	if s.WarmScans < 1 {
		t.Errorf("warm scans = %d, want >= 1 (second query runs from cache)", s.WarmScans)
	}
	if s.TablesTouched != 1 {
		t.Errorf("tables touched = %d, want 1", s.TablesTouched)
	}
	if s.TuplesParsed == 0 {
		t.Error("tuples parsed = 0 after a cold scan")
	}
	if s.RowsKnown != 100 {
		t.Errorf("rows known = %d, want 100", s.RowsKnown)
	}
	if s.KernelCache.Misses == 0 {
		t.Error("kernel cache misses = 0; the filter shape should have compiled")
	}

	ts := db.TableStats()
	if m, ok := ts["trips"]; !ok || m.ColdScans != 1 {
		t.Errorf("table stats = %+v", ts)
	}
}

// TestTablesIntrospection: the Tables surface lists the catalog in name
// order with columns and format.
func TestTablesIntrospection(t *testing.T) {
	db, err := Open(testCatalog(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbls := db.Tables()
	if len(tbls) != 1 || tbls[0].Name != "trips" || tbls[0].Format != "csv" {
		t.Fatalf("tables = %+v", tbls)
	}
	if len(tbls[0].Columns) != 3 || tbls[0].Columns[0].Name != "city" || tbls[0].Columns[0].Type != Text {
		t.Errorf("columns = %+v", tbls[0].Columns)
	}
}
