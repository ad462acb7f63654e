// Package bench implements the experiment harness that regenerates every
// figure of the paper's evaluation (§5, Figs 3-13). Each FigN function
// builds its dataset under Config.WorkDir, runs the paper's workload at a
// configurable scale, and returns a Report whose rows mirror the series in
// the original figure.
//
// Absolute times are machine-dependent; the shapes — who wins, by what
// factor, where lines cross — are what to compare against the paper. The
// TestFig* tests in this package assert those shapes. Speed claims about
// this engine come from the repo benchmark (benchmark/run.sh), not from
// these figures.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"nodb/internal/core"
	"nodb/internal/exec"
	"nodb/internal/schema"
)

// Config scales the experiments. Zero values take the Small defaults.
type Config struct {
	WorkDir string

	// Micro-benchmark file shape (paper: 7.5M x 150).
	Rows  int
	Attrs int

	// Queries per sequence (paper: 50 per epoch / variant).
	SeqQueries int

	// TPC-H scale factor (paper: 10).
	TPCHScale float64

	// FITS table rows (paper: ~4.3M rows, 12 GB).
	FITSRows int

	// Fig 13 shape: text attribute count; widths are fixed at 16 and 64.
	WidthAttrs int
	WidthRows  int

	Seed int64
}

// Small returns a configuration sized for laptop-scale runs (seconds per
// figure). Every size scales down the paper's, keeping the shapes.
func Small(workDir string) Config {
	return Config{
		WorkDir:    workDir,
		Rows:       10_000,
		Attrs:      60,
		SeqQueries: 20,
		TPCHScale:  0.005,
		FITSRows:   120_000,
		WidthAttrs: 80,
		WidthRows:  2_000,
		Seed:       42,
	}
}

// Default returns the configuration used by cmd/nodbbench: tens-of-MB
// files that make the adaptive effects pronounced while each figure still
// regenerates in well under a minute on one core. The paper's absolute
// scale (11-92 GB) changes constants, not shapes.
func Default(workDir string) Config {
	return Config{
		WorkDir:    workDir,
		Rows:       25_000,
		Attrs:      100,
		SeqQueries: 15,
		TPCHScale:  0.02,
		FITSRows:   200_000,
		WidthAttrs: 150,
		WidthRows:  6_000,
		Seed:       42,
	}
}

// withDefaults fills zero fields from Small.
func (c Config) withDefaults() Config {
	d := Small(c.WorkDir)
	if c.Rows == 0 {
		c.Rows = d.Rows
	}
	if c.Attrs == 0 {
		c.Attrs = d.Attrs
	}
	if c.SeqQueries == 0 {
		c.SeqQueries = d.SeqQueries
	}
	if c.TPCHScale == 0 {
		c.TPCHScale = d.TPCHScale
	}
	if c.FITSRows == 0 {
		c.FITSRows = d.FITSRows
	}
	if c.WidthAttrs == 0 {
		c.WidthAttrs = d.WidthAttrs
	}
	if c.WidthRows == 0 {
		c.WidthRows = d.WidthRows
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Report is one regenerated figure: a titled table of series.
type Report struct {
	ID     string // "fig3", "fig8a", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one data row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-text observation (printed under the table).
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(r.ID), r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// paperOpen opens an engine for a paper-reproduction figure. The paper
// benchmarks the single-backend PostgresRaw prototype, so the parallel
// partitioned scan is pinned off regardless of the host's core count —
// figure shapes must not depend on GOMAXPROCS.
func paperOpen(cat *schema.Catalog, opts core.Options) (*core.Engine, error) {
	opts.Parallelism = 1
	return core.Open(cat, opts)
}

// timeQuery plans and streams a query to completion, returning the wall
// time and row count. Results are consumed, not materialized, so the
// measurement reflects execution rather than allocation of result sets.
func timeQuery(e *core.Engine, sql string) (time.Duration, int64, error) {
	start := time.Now()
	op, _, err := e.Prepare(sql)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: %q: %w", sql, err)
	}
	n, err := exec.Count(op)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: %q: %w", sql, err)
	}
	return time.Since(start), n, nil
}

// ms formats a duration in milliseconds with three significant decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// mb formats a byte count in megabytes.
func mb(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}

// avg returns the mean of a duration slice.
func avg(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}
