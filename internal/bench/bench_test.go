package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"nodb/internal/core"
	"nodb/internal/schema"
)

func coreOpen(cat *schema.Catalog) (*core.Engine, error) {
	return core.Open(cat, core.Options{Mode: core.ModePMCache})
}

// tiny returns a configuration small enough for unit tests (fractions of a
// second per figure).
func tiny(t *testing.T) Config {
	return Config{
		WorkDir:    t.TempDir(),
		Rows:       4_000,
		Attrs:      24,
		SeqQueries: 6,
		TPCHScale:  0.001,
		FITSRows:   30_000,
		WidthAttrs: 40,
		WidthRows:  1_200,
		Seed:       42,
	}
}

// cell parses a numeric report cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig3ShapeAndStructure(t *testing.T) {
	rep, err := Fig3(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 4 {
		t.Fatalf("fig3 rows = %d", len(rep.Rows))
	}
	// Budgets ascend; the last row is the unlimited map. Pointer counts
	// must not decrease along the sweep.
	first := cell(t, rep.Rows[0][1])
	last := cell(t, rep.Rows[len(rep.Rows)-1][1])
	if last < first {
		t.Errorf("pointers decreased along budget sweep: %v -> %v", first, last)
	}
	if rep.Rows[len(rep.Rows)-1][0] != "unlimited" {
		t.Errorf("last row should be the unlimited budget: %v", rep.Rows[len(rep.Rows)-1])
	}
}

func TestFig4Linearity(t *testing.T) {
	rep, err := Fig4(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][][2]float64{}
	for _, r := range rep.Rows {
		series[r[0]] = append(series[r[0]], [2]float64{cell(t, r[1]), cell(t, r[2])})
	}
	for name, pts := range series {
		if len(pts) != 4 {
			t.Fatalf("series %s has %d points", name, len(pts))
		}
		// File sizes must grow monotonically within a series.
		for i := 1; i < len(pts); i++ {
			if pts[i][0] <= pts[i-1][0] {
				t.Errorf("series %s: file size not increasing", name)
			}
		}
	}
}

func TestFig5VariantsOrdering(t *testing.T) {
	cfg := tiny(t)
	rep, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 5 always runs the paper's 50-query sequence.
	if len(rep.Rows) != 50 {
		t.Fatalf("fig5 rows = %d", len(rep.Rows))
	}
	// Warm behavior: PM+C average (Q2+) must beat the baseline average —
	// the central claim of Fig 5.
	var pmcSum, baseSum float64
	for _, r := range rep.Rows[1:] {
		pmcSum += cell(t, r[1])
		baseSum += cell(t, r[4])
	}
	if pmcSum >= baseSum {
		t.Errorf("PM+C warm total (%f) should beat baseline (%f)", pmcSum, baseSum)
	}
}

func TestFig6EpochsAndCacheUsage(t *testing.T) {
	cfg := tiny(t)
	cfg.SeqQueries = 5
	rep, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5*cfg.SeqQueries {
		t.Fatalf("fig6 rows = %d", len(rep.Rows))
	}
	// Cache usage must be monotone within the first epoch and positive at
	// the end.
	lastUsage := cell(t, rep.Rows[len(rep.Rows)-1][4])
	if lastUsage <= 0 {
		t.Error("cache usage should be positive at the end")
	}
	firstEpochStart := cell(t, rep.Rows[0][4])
	firstEpochEnd := cell(t, rep.Rows[cfg.SeqQueries-1][4])
	if firstEpochEnd < firstEpochStart {
		t.Error("cache usage should grow during epoch 1")
	}
}

func TestFig7CumulativeOrdering(t *testing.T) {
	// The figure reports wall-clock totals only, and at this scale one total
	// is a few milliseconds — a scheduling hiccup inside a loaded
	// `go test ./...` can invert an ordering. Each system's total is its
	// best of three runs of the figure: a stall inflates one run, nothing
	// deflates one, so the minimum is the least disturbed measurement.
	totals := map[string]float64{}
	for run := 0; run < 3; run++ {
		rep, err := Fig7(tiny(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Rows {
			if v := cell(t, r[3]); run == 0 || v < totals[r[0]] {
				totals[r[0]] = v
			}
		}
	}
	// Shape invariants that hold at any scale. The paper's headline — a
	// ~25% cumulative win over PostgreSQL — additionally needs files large
	// enough that load I/O dominates fixed per-query costs; regenerate the
	// figure at the default scale (nodbbench -fig fig7) to see it.
	if totals["dbmsx-external (temp load/query)"] <= totals["postgresql"] {
		t.Errorf("external temp-load (%f) should cost more than load-once (%f)",
			totals["dbmsx-external (temp load/query)"], totals["postgresql"])
	}
	if totals["mysql-csv-engine"] <= totals["postgresraw pm+c"] {
		t.Errorf("full-reparse CSV engine (%f) should cost more than PostgresRaw (%f)",
			totals["mysql-csv-engine"], totals["postgresraw pm+c"])
	}
	if totals["postgresraw pm+c"] >= 2*totals["postgresql"] {
		t.Errorf("PostgresRaw (%f) should stay competitive with PostgreSQL incl. load (%f)",
			totals["postgresraw pm+c"], totals["postgresql"])
	}
}

func TestFig8Structure(t *testing.T) {
	repA, err := Fig8a(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Rows) != 7 {
		t.Fatalf("fig8a rows = %d", len(repA.Rows))
	}
	repB, err := Fig8b(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(repB.Rows) != 8 {
		t.Fatalf("fig8b rows = %d", len(repB.Rows))
	}
	// Within fig8a, the warmed PostgresRaw queries (Q2+) must be faster
	// than the cold first query.
	q1 := cell(t, repA.Rows[0][1])
	q2 := cell(t, repA.Rows[1][1])
	if q2 >= q1 {
		t.Errorf("fig8a: warm Q2 (%f) should beat cold Q1 (%f)", q2, q1)
	}
}

func TestFig9And10(t *testing.T) {
	cfg := tiny(t)
	rep9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep9.Rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(rep9.Rows))
	}
	// PostgreSQL's total includes a non-zero load bar.
	if cell(t, rep9.Rows[0][1]) <= 0 {
		t.Error("fig9: PostgreSQL load must be positive")
	}
	rep10, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep10.Rows) != 8 {
		t.Fatalf("fig10 rows = %d", len(rep10.Rows))
	}
}

func TestFig11Crossover(t *testing.T) {
	rep, err := Fig11(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 {
		t.Fatalf("fig11 rows = %d", len(rep.Rows))
	}
	// The workload cycles over three columns, so Q1-Q3 are each cold for
	// their column; Q4 onward the cache is fully built — those are the
	// warm queries that must beat the per-query full scans of CFITSIO.
	var cfSum, rawSum float64
	for _, r := range rep.Rows[3:] {
		cfSum += cell(t, r[1])
		rawSum += cell(t, r[2])
	}
	if rawSum >= cfSum {
		t.Errorf("warm PostgresRaw total (%f) should beat CFITSIO (%f)", rawSum, cfSum)
	}
}

func TestFig12StructureAndCorrectness(t *testing.T) {
	rep, err := Fig12(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("fig12 rows = %d", len(rep.Rows))
	}
}

func TestFig13WidthDegradation(t *testing.T) {
	rep, err := Fig13(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 {
		t.Fatalf("fig13 rows = %d", len(rep.Rows))
	}
	// The loaded engine must degrade more from width 16 -> 64 than
	// PostgresRaw does (the Fig 13 claim).
	var pg16, pg64, raw16, raw64 float64
	for _, r := range rep.Rows {
		pg16 += cell(t, r[1])
		pg64 += cell(t, r[2])
		raw16 += cell(t, r[3])
		raw64 += cell(t, r[4])
	}
	pgSlow := pg64 / pg16
	rawSlow := raw64 / raw16
	if pgSlow <= rawSlow {
		t.Errorf("loaded slowdown (%.2fx) should exceed PostgresRaw slowdown (%.2fx)", pgSlow, rawSlow)
	}
}

func TestRegistryAndPrint(t *testing.T) {
	ids := FigureIDs()
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b",
		"fig9", "fig10", "fig11", "fig12", "fig13"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("figure order = %v, want %v", ids, want)
	}
	if _, err := Run("nope", tiny(t)); err == nil {
		t.Error("unknown figure must error")
	}
	rep := &Report{ID: "figX", Title: "T", Header: []string{"a", "b"}}
	rep.AddRow("1", "2")
	rep.AddNote("n %d", 1)
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, frag := range []string{"FIGX", "a", "1", "note: n 1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printed report missing %q:\n%s", frag, out)
		}
	}
}

func TestTimeQueryErrors(t *testing.T) {
	cfg := tiny(t)
	cat, _, err := microFile(cfg, "err.csv", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := coreOpen(cat)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := timeQuery(e, "SELECT nope FROM wide"); err == nil {
		t.Error("bad query must error")
	}
	d, n, err := timeQuery(e, "SELECT a1 FROM wide")
	if err != nil || n != 10 || d <= 0 {
		t.Errorf("timeQuery = %v %d %v", d, n, err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{WorkDir: "/tmp/x"}).withDefaults()
	if c.Rows == 0 || c.Attrs == 0 || c.TPCHScale == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if avg(nil) != 0 {
		t.Error("avg of empty must be 0")
	}
	if ms(1500*time.Microsecond) != "1.500" {
		t.Errorf("ms formatting = %s", ms(1500*time.Microsecond))
	}
}
