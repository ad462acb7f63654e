package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nodb"
	"nodb/internal/datum"
	"nodb/internal/fits"
	"nodb/internal/tpch"
	"nodb/internal/workload"
)

// scale sizes the generated inputs. Every size is fixed by the scale name,
// so two runs at the same (seed, scale) see byte-identical files.
type scale struct {
	name string

	wideRows    int // rows of wide.csv (cold_first_query, adaptive_sequence)
	wideAttrs   int
	restartRows int // rows of restart_warm's wide.csv

	tpchSF float64 // warm_analytics

	eventRows int // served_mix

	layerRows   int // rows of the small inputs the layer drivers scan
	layerSF     float64
	layerSample time.Duration // how long a layer driver samples one number
}

// Sizes are chosen so that one measured operation takes tens of
// milliseconds (embedded workloads) or about a millisecond (served_mix,
// where the front-end layers must stay a visible share), and a 10 s run
// collects well over a hundred operations on a two-core sandbox. See
// README.md "Sizing".
var scales = map[string]scale{
	"full": {
		name: "full", wideRows: 20_000, wideAttrs: 50, restartRows: 8_000, tpchSF: 0.01,
		eventRows: 5_000, layerRows: 5_000, layerSF: 0.005, layerSample: 50 * time.Millisecond,
	},
	"smoke": {
		name: "smoke", wideRows: 1_500, wideAttrs: 50, restartRows: 1_000, tpchSF: 0.001,
		eventRows: 1_500, layerRows: 500, layerSF: 0.001, layerSample: time.Millisecond,
	},
}

// wideCatalog declares wide.csv (a1..aN int) through the public API.
func wideCatalog(path string, attrs int) (*nodb.Catalog, error) {
	cols := make([]nodb.ColumnDef, attrs)
	for i := range cols {
		cols[i] = nodb.Col(workload.AttrName(i), nodb.Int)
	}
	cat := nodb.NewCatalog()
	if err := cat.AddCSV("wide", path, cols...); err != nil {
		return nil, err
	}
	return cat, nil
}

// wideColumns loads wide.csv column-major with nothing but the standard
// library: the independent oracle for the projection+filter workloads. It
// shares no tokenizer, parser or executor code with the engine.
func wideColumns(path string, attrs int) ([][]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cols := make([][]int64, attrs)
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		if len(line) == 0 {
			continue
		}
		for a := 0; a < attrs; a++ {
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field, line = line[:i], line[i+1:]
			}
			v, err := strconv.ParseInt(string(field), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", path, err)
			}
			cols[a] = append(cols[a], v)
		}
	}
	return cols, nil
}

// wideQuery is one projection+filter over wide.csv: SELECT proj FROM wide
// WHERE a[filter] < bound. Attribute numbers are 0-based ordinals.
type wideQuery struct {
	proj   []int
	filter int
	bound  int64
	sql    string
	want   digest
}

func newWideQuery(proj []int, filter int, bound int64) *wideQuery {
	var b bytes.Buffer
	b.WriteString("SELECT ")
	for i, p := range proj {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(workload.AttrName(p))
	}
	fmt.Fprintf(&b, " FROM wide WHERE %s < %d", workload.AttrName(filter), bound)
	return &wideQuery{proj: proj, filter: filter, bound: bound, sql: b.String()}
}

// expect computes the query's digest from the independently parsed columns.
func (q *wideQuery) expect(cols [][]int64) {
	var d digest
	var r rowHasher
	for row, v := range cols[q.filter] {
		if v >= q.bound {
			continue
		}
		for _, p := range q.proj {
			r.int(cols[p][row])
		}
		d.finish(&r)
	}
	q.want = d
}

// verdict judges one execution of the query: the first error, a digest that
// differs from the oracle's, or "" when the result is right.
func (q *wideQuery) verdict(got digest, errs ...error) string {
	for _, err := range errs {
		if err != nil {
			return err.Error()
		}
	}
	if !q.want.matches(got) {
		return fmt.Sprintf("%s: got %v want %v", q.sql, got, q.want)
	}
	return ""
}

// Columns of events.csv, the served_mix table: twelve mixed-type columns so
// the NDJSON encoder, the parser and the planner see every value type.
var eventCols = []nodb.ColumnDef{
	nodb.Col("id", nodb.Int),
	nodb.Col("event_date", nodb.Date),
	nodb.Col("kind", nodb.Text),
	nodb.Col("region", nodb.Text),
	nodb.Col("user_id", nodb.Int),
	nodb.Col("amount", nodb.Float),
	nodb.Col("qty", nodb.Int),
	nodb.Col("score", nodb.Float),
	nodb.Col("ok", nodb.Bool),
	nodb.Col("status", nodb.Text),
	nodb.Col("latency_ms", nodb.Int),
	nodb.Col("note", nodb.Text),
}

var (
	eventKinds    = []string{"click", "view", "purchase", "refund", "signup", "login", "logout", "search"}
	eventRegions  = []string{"emea", "apac", "amer", "latam", "anz"}
	eventStatuses = []string{"new", "open", "done", "failed"}
)

// eventRow renders row id of events.csv. INSERTs of served_mix reuse it for
// ids beyond the generated range, so an appended row is as wide as a
// generated one.
func eventRow(rng *rand.Rand, id int64) []string {
	base := datum.MustDate("2024-01-01")
	return []string{
		strconv.FormatInt(id, 10),
		base.AddDays(int64(rng.Intn(365))).DateString(),
		eventKinds[rng.Intn(len(eventKinds))],
		eventRegions[rng.Intn(len(eventRegions))],
		strconv.Itoa(rng.Intn(5000)),
		strconv.FormatFloat(float64(rng.Intn(1_000_000))/100, 'f', 2, 64),
		strconv.Itoa(1 + rng.Intn(20)),
		strconv.FormatFloat(rng.Float64(), 'f', 6, 64),
		[]string{"true", "false"}[rng.Intn(2)],
		eventStatuses[rng.Intn(len(eventStatuses))],
		strconv.Itoa(rng.Intn(2000)),
		"n" + strconv.Itoa(rng.Intn(1_000_000)),
	}
}

func genEvents(path string, rows int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < rows; id++ {
		for i, cell := range eventRow(rng, int64(id)) {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(cell)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func eventsCatalog(path string) (*nodb.Catalog, error) {
	cat := nodb.NewCatalog()
	if err := cat.AddCSV("events", path, eventCols...); err != nil {
		return nil, err
	}
	return cat, nil
}

// genTPCH writes the TPC-H tables and their schema file into dir and
// returns the catalog over them.
func genTPCH(dir string, sf float64, seed int64) (*nodb.Catalog, error) {
	if err := tpch.Generate(dir, sf, seed); err != nil {
		return nil, err
	}
	return tpchCatalog(dir)
}

func tpchCatalog(dir string) (*nodb.Catalog, error) {
	schemaPath := filepath.Join(dir, "schema.nodb")
	if err := tpch.WriteSchemaFile(schemaPath); err != nil {
		return nil, err
	}
	cat := nodb.NewCatalog()
	if err := cat.LoadSchemaFile(schemaPath, dir); err != nil {
		return nil, err
	}
	return cat, nil
}

// Format-layer inputs: the same id + float columns as JSON-Lines and as a
// FITS binary table.
const formatCols = 8

func formatColumnDefs(withID bool) []nodb.ColumnDef {
	var cols []nodb.ColumnDef
	if withID {
		cols = append(cols, nodb.Col("id", nodb.Int))
	}
	for j := 0; j < formatCols; j++ {
		cols = append(cols, nodb.Col(fmt.Sprintf("v_%02d", j), nodb.Float))
	}
	return cols
}

func genJSONL(path string, rows int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		fmt.Fprintf(w, `{"id": %d`, i)
		for j := 0; j < formatCols; j++ {
			fmt.Fprintf(w, `, "v_%02d": %g`, j, rng.NormFloat64()*3+20)
		}
		w.WriteString("}\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func genFITS(path string, rows int, seed int64) error {
	columns := make([]fits.Column, formatCols)
	for i := range columns {
		columns[i] = fits.Column{Name: fmt.Sprintf("v_%02d", i), Type: fits.Float64}
	}
	w, err := fits.NewTableWriter(path, columns, int64(rows))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]datum.Datum, formatCols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = datum.NewFloat(rng.NormFloat64()*3 + 20)
		}
		if err := w.Append(row); err != nil {
			return err
		}
	}
	return w.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
