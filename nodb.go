// Package nodb is an in-situ SQL query engine for raw data files — a Go
// implementation of the NoDB design (Alagiannis et al., "NoDB: Efficient
// Query Execution on Raw Data Files", SIGMOD 2012) and its PostgresRaw
// prototype.
//
// A DB executes SQL directly over raw files — CSV, FITS binary tables and
// JSON-Lines out of the box, any format registered with internal/format —
// with no loading step.
// While queries run, the engine adaptively builds an in-memory positional
// map (byte offsets of attributes inside the file), a binary value cache
// and table statistics, so performance improves query over query and
// converges to — and in many workloads beats — a conventional load-first
// DBMS, without ever paying the load.
//
// Quick start:
//
//	cat := nodb.NewCatalog()
//	err := cat.AddCSV("trips", "trips.csv",
//		nodb.Col("city", nodb.Text),
//		nodb.Col("distance_km", nodb.Float),
//	)
//	db, err := nodb.Open(cat, nodb.Options{})
//	res, err := db.Query("SELECT city, avg(distance_km) FROM trips GROUP BY city")
//	for _, row := range res.Rows {
//		fmt.Println(row[0].Text(), row[1].Float())
//	}
//
// The zero Options give the full PostgresRaw configuration (positional map
// + cache + statistics). Alternative modes reproduce the paper's baselines
// (map only, cache only, straw-man external files, conventional
// load-first); see Mode.
package nodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nodb/internal/core"
	"nodb/internal/datum"
	"nodb/internal/format"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
)

// Typed errors for raw-file faults. The engine guarantees a query returns
// correct rows or one of these (errors.Is-able through the whole chain,
// including the database/sql driver) — never silently wrong results built
// from a file that changed underneath it.
var (
	// ErrFileChanged reports that a raw file was truncated, rewritten or
	// otherwise modified externally while its adaptive state or an active
	// scan depended on the old bytes. The state is invalidated; the next
	// query rebuilds from the current file.
	ErrFileChanged = format.ErrFileChanged
	// ErrFileVanished reports that a raw file disappeared (unlinked or
	// renamed away) after its table was registered.
	ErrFileVanished = format.ErrFileVanished
	// ErrCorruptAux reports auxiliary state (positional map, cache)
	// inconsistent with the file — it is dropped and rebuilt.
	ErrCorruptAux = format.ErrCorruptAux
	// ErrRetriesExhausted reports that a scan's cold-rebuild retries (two
	// after the first attempt) were exhausted without a clean pass; the
	// last underlying cause is wrapped.
	ErrRetriesExhausted = format.ErrRetriesExhausted
)

// RowError locates a malformed value in a raw file: format, table, column
// ("" when the whole line is malformed) and 1-based row. Reach it with
// errors.As, also through the database/sql driver.
type RowError = format.RowError

// Type identifies a column type.
type Type = datum.Type

// Column types.
const (
	Int   = datum.Int
	Float = datum.Float
	Text  = datum.Text
	Date  = datum.Date
	Bool  = datum.Bool
)

// Value is one typed SQL value (use Int()/Float()/Text()/Null()... to
// inspect it).
type Value = datum.Datum

// Mode selects how the engine accesses tables.
type Mode int

// Engine modes, mirroring the paper's evaluation configurations.
const (
	// ModePMCache is full PostgresRaw: positional map and binary cache.
	ModePMCache Mode = iota
	// ModePM uses only the positional map.
	ModePM
	// ModeCache uses only the binary cache (plus the minimal end-of-line
	// map).
	ModeCache
	// ModeExternalFiles keeps no auxiliary state: every query re-parses
	// the raw file, like SQL "external tables".
	ModeExternalFiles
	// ModeLoadFirst bulk-loads files into an internal page store before
	// the first query — the conventional DBMS the paper compares against.
	ModeLoadFirst
)

func (m Mode) coreMode() core.Mode { return core.Mode(m) }

// ParseMode resolves a mode name, case-insensitively: pm+cache (or pmcache,
// pm+c), pm, cache (or c), external-files (or external, baseline),
// load-first (or loaded). The nodb and nodbd -mode flags and the driver's
// mode= DSN key all go through it.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "pm+cache", "pmcache", "pm+c":
		return ModePMCache, nil
	case "pm":
		return ModePM, nil
	case "cache", "c":
		return ModeCache, nil
	case "external-files", "external", "baseline":
		return ModeExternalFiles, nil
	case "load-first", "loaded":
		return ModeLoadFirst, nil
	}
	return 0, fmt.Errorf("nodb: unknown mode %q", name)
}

// Options configure a DB. The zero value is the recommended PostgresRaw
// configuration with unlimited budgets and statistics enabled.
type Options struct {
	// Mode selects the access strategy (default ModePMCache).
	Mode Mode
	// DisableStatistics turns off on-the-fly statistics collection and
	// statistics-driven planning.
	DisableStatistics bool
	// PositionalMapBudget caps the positional map's memory in bytes
	// (0 = unlimited).
	PositionalMapBudget int64
	// CacheBudget caps the binary cache in bytes (0 = unlimited).
	CacheBudget int64
	// DataDir is where ModeLoadFirst writes its page files (default:
	// next to the raw files).
	DataDir string
	// Parallelism is how many worker goroutines a cold CSV scan may use to
	// process newline-aligned file partitions concurrently (0 = GOMAXPROCS,
	// 1 = always sequential). Query results are identical for every
	// setting; warm scans that can exploit the positional map or cache run
	// sequentially regardless, as do configurations with a positional-map
	// or cache budget (the budgets cap memory that per-worker shards would
	// otherwise exceed).
	Parallelism int
	// BatchSize is how many rows one vectorized execution batch carries
	// between operators (0 = 1024). Results are identical for any
	// setting >= 1.
	BatchSize int
	// DisableVectorized runs the one executor over one-row batches through
	// the interpreted expression walk: BatchSize becomes 1, the kernel
	// compiler is off, and joins, aggregation output and sorts emit one-row
	// batches too. Results are identical to the default. The switch serves
	// the repo benchmark's result oracle (benchmark/oracle.go) and the
	// ablations that compare the two; it is also an escape hatch.
	DisableVectorized bool
	// DisableKernels turns off the query-shape kernel compiler: supported
	// filter and projection shapes then run through the generic vectorized
	// expression walk instead of fused type-specialized kernels. Results
	// are identical. The switch serves the repo benchmark's result oracle
	// (benchmark/oracle.go) and the ablations that compare the two paths;
	// it is also an escape hatch.
	DisableKernels bool
	// Sidecar configures durable adaptive state: when enabled, each
	// table's positional map, cached columns, statistics and access
	// counters checkpoint into a versioned, checksummed sidecar file next
	// to the raw file (or under Sidecar.Dir), and the hot prepared-
	// statement texts persist alongside. A restarted DB warm-starts from
	// these files instead of re-paying every cold scan; a sidecar that
	// fails its checksum or no longer matches the raw file is discarded and
	// the table starts cold — never wrong rows.
	Sidecar SidecarOptions
}

// SidecarOptions configure the durable-adaptive-state sidecar files.
type SidecarOptions struct {
	// Enable turns sidecar persistence on.
	Enable bool
	// Dir is where sidecar files live. Empty means next to each raw file
	// (<raw path>.nodbaux). The directory must exist or be creatable and
	// writable; Open verifies this.
	Dir string
	// MaxBytes caps each sidecar file's size (0 = unlimited). Under a
	// budget, the most-accessed cached columns persist first and the rest
	// are rebuilt on demand after a restart.
	MaxBytes int64
}

// ColumnDef declares one column of a table.
type ColumnDef struct {
	Name string
	Type Type
}

// Col is shorthand for a ColumnDef.
func Col(name string, t Type) ColumnDef { return ColumnDef{Name: name, Type: t} }

// Catalog declares the tables a DB can query.
type Catalog struct {
	cat *schema.Catalog
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{cat: schema.NewCatalog()}
}

// AddCSV registers a comma-separated file as a table.
func (c *Catalog) AddCSV(name, path string, cols ...ColumnDef) error {
	return c.add(name, path, ',', schema.CSV, cols)
}

// AddDSV registers a delimiter-separated file (e.g. '|' for TPC-H .tbl
// files) as a table.
func (c *Catalog) AddDSV(name, path string, delimiter byte, cols ...ColumnDef) error {
	return c.add(name, path, delimiter, schema.CSV, cols)
}

// AddFITS registers the first binary-table extension of a FITS file as a
// table. Column names and types must match the file's TTYPEn/TFORMn
// declarations (Int for J/K columns, Float for E/D).
func (c *Catalog) AddFITS(name, path string, cols ...ColumnDef) error {
	return c.add(name, path, ',', schema.FITS, cols)
}

// AddJSONL registers a JSON-Lines file (one JSON object per line, a.k.a.
// ndjson) as a table. Columns bind to top-level object fields by name;
// absent fields read as NULL and nested values are skipped.
func (c *Catalog) AddJSONL(name, path string, cols ...ColumnDef) error {
	return c.add(name, path, ',', schema.JSONL, cols)
}

// LoadSchemaFile registers tables from a schema declaration file (see
// internal/schema.LoadFile for the format); relative data paths resolve
// against dir. Stanzas may carry a "format NAME" clause naming any
// registered raw format (see Formats); without it the format is inferred
// from the file extension.
func (c *Catalog) LoadSchemaFile(path, dir string) error {
	return c.cat.LoadFile(path, dir)
}

// Formats lists the registered raw formats a table may declare ("csv",
// "fits", "jsonl" ship built in). New formats register through the
// internal format driver registry; the engine carries no per-format
// special cases, so everything here gets the full scan machinery —
// parallel partitioned cold scans, the binary-cache warm path, shared-
// lock concurrency, cancellation and LIMIT pushdown.
func Formats() []string { return format.Names() }

func (c *Catalog) add(name, path string, delim byte, format schema.Format, cols []ColumnDef) error {
	scols := make([]schema.Column, len(cols))
	for i, cd := range cols {
		scols[i] = schema.Column{Name: cd.Name, Type: cd.Type}
	}
	tbl, err := schema.New(name, scols, path, format)
	if err != nil {
		return err
	}
	tbl.Delimiter = delim
	return c.cat.Register(tbl)
}

// DB executes SQL over the catalog's raw files. A DB is safe for
// concurrent use: sessions share the adaptive structures (positional map,
// binary cache, statistics) through per-table synchronization — a cold
// table is parsed exactly once no matter how many queries arrive at it
// (single-flight), and fully cached tables serve any number of readers in
// parallel. Executions are bounded by contexts; see QueryContext.
//
// For stdlib integration, the nodb/driver package registers this engine as
// a database/sql driver named "nodb".
type DB struct {
	eng *core.Engine
}

// validate rejects option values the engine would otherwise misbehave on
// silently.
func (o Options) validate() error {
	if o.Mode < ModePMCache || o.Mode > ModeLoadFirst {
		return fmt.Errorf("nodb: unknown Mode %d", o.Mode)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("nodb: Parallelism must be >= 0 (0 = GOMAXPROCS), got %d", o.Parallelism)
	}
	if o.BatchSize < 0 {
		return fmt.Errorf("nodb: BatchSize must be >= 0 (0 = default %d), got %d", 1024, o.BatchSize)
	}
	if o.PositionalMapBudget < 0 {
		return fmt.Errorf("nodb: PositionalMapBudget must be >= 0 (0 = unlimited), got %d", o.PositionalMapBudget)
	}
	if o.CacheBudget < 0 {
		return fmt.Errorf("nodb: CacheBudget must be >= 0 (0 = unlimited), got %d", o.CacheBudget)
	}
	if o.Sidecar.MaxBytes < 0 {
		return fmt.Errorf("nodb: Sidecar.MaxBytes must be >= 0 (0 = unlimited), got %d", o.Sidecar.MaxBytes)
	}
	if o.Sidecar.Enable && o.Sidecar.Dir != "" {
		if err := probeDir(o.Sidecar.Dir); err != nil {
			return fmt.Errorf("nodb: Sidecar.Dir %q is not a writable directory: %w", o.Sidecar.Dir, err)
		}
	}
	return nil
}

// probeDir verifies dir exists (creating it if needed) and is writable by
// creating and removing a probe file — the checkpointer's first failed
// write would otherwise surface minutes later, from a background
// goroutine, as an opaque counter.
func probeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe := filepath.Join(dir, ".nodb-probe")
	f, err := os.Create(probe)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Remove(probe)
}

// Open creates a DB. No data is read until the first query touches a
// table — the data-to-query time of a NoDB engine is zero. Invalid option
// values (negative sizes, unknown modes) are rejected here rather than
// surfacing as misbehavior at the first query.
func Open(cat *Catalog, opts Options) (*DB, error) {
	if cat == nil {
		return nil, fmt.Errorf("nodb: nil catalog")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	eng, err := core.Open(cat.cat, core.Options{
		Mode:              opts.Mode.coreMode(),
		PMBudget:          opts.PositionalMapBudget,
		CacheBudget:       opts.CacheBudget,
		Statistics:        !opts.DisableStatistics,
		DataDir:           opts.DataDir,
		Parallelism:       opts.Parallelism,
		BatchSize:         opts.BatchSize,
		DisableVectorized: opts.DisableVectorized,
		DisableKernels:    opts.DisableKernels,
		Sidecar: core.SidecarOptions{
			Enable:   opts.Sidecar.Enable,
			Dir:      opts.Sidecar.Dir,
			MaxBytes: opts.Sidecar.MaxBytes,
		},
	})
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Column describes one result column.
type Column struct {
	Name string
	Type Type
}

// Result is a fully materialized query result.
type Result struct {
	Columns []Column
	Rows    [][]Value
}

// Query parses, plans and executes one SELECT statement, materializing the
// result. It is a convenience wrapper over QueryContext; prefer the
// context API (with a streaming Rows cursor) for large results and for
// cancellation.
func (db *DB) Query(sql string) (*Result, error) {
	res, err := db.eng.Query(sql)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Columns: make([]Column, len(res.Cols)),
		Rows:    make([][]Value, len(res.Rows)),
	}
	for i, c := range res.Cols {
		out.Columns[i] = Column{Name: c.Name, Type: c.Type}
	}
	for i, r := range res.Rows {
		out.Rows[i] = r
	}
	return out, nil
}

// Stream plans one SELECT statement and invokes fn for every result row
// without materializing the result set. The row slice is reused between
// calls; copy it if you retain it. It is a wrapper over QueryContext.
func (db *DB) Stream(sql string, fn func(row []Value) error) error {
	rows, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if err := fn(rows.Values()); err != nil {
			return err
		}
	}
	return rows.Err()
}

// Exec runs any supported statement. For SELECT it behaves like Query;
// for INSERT INTO ... VALUES it appends literal rows to the table's raw
// CSV file (the paper's §4.5 "internal updates" — the raw file stays the
// single source of truth and the adaptive structures extend on the next
// query). It returns the result (empty for INSERT) and the row count
// returned or inserted. It is a wrapper over ExecContext.
func (db *DB) Exec(sql string) (*Result, int64, error) {
	res, n, err := db.eng.Exec(sql)
	if err != nil {
		return nil, 0, err
	}
	out := &Result{Columns: make([]Column, len(res.Cols)), Rows: make([][]Value, len(res.Rows))}
	for i, c := range res.Cols {
		out.Columns[i] = Column{Name: c.Name, Type: c.Type}
	}
	for i, r := range res.Rows {
		out.Rows[i] = r
	}
	return out, n, nil
}

// Load eagerly bulk-loads every table (ModeLoadFirst only); in-situ modes
// never need it.
func (db *DB) Load() error { return db.eng.Load() }

// Prewarm uses idle time to populate a table's adaptive structures
// (positional map, cache, statistics) for the given columns — all columns
// when none are named — so the first real query arrives warm. This is the
// paper's §7 auto-tuning opportunity; it is never required.
func (db *DB) Prewarm(table string, columns ...string) error {
	return db.eng.Prewarm(table, columns...)
}

// Invalidate drops all adaptive state of a table, forcing the next query
// to rebuild it. Appends to raw files do NOT require this — they are
// picked up automatically; call it after in-place edits.
func (db *DB) Invalidate(table string) { db.eng.Invalidate(table) }

// Profile is a point-in-time view of one query's execution profile:
// where its time went (plan, bind, execute; lock waits, raw vs cache
// scanning, file IO), what it did (tuples tokenized, fields parsed vs
// served from the positional map or cache, IO bytes, worker count), and
// the annotated operator tree. Obtain one with WithProfile + Rows.Profile,
// or through EXPLAIN ANALYZE.
type Profile = qtrace.Snapshot

// WithProfile returns a context that carries a fresh per-query execution
// profile. Run exactly one query with the returned context and read the
// result through Rows.Profile after draining the cursor:
//
//	ctx := nodb.WithProfile(context.Background())
//	rows, err := db.QueryContext(ctx, "SELECT ...")
//	...drain rows...
//	p := rows.Profile()
//
// Profiling costs one branch per operator construction when disabled and
// a few atomic adds per batch when enabled; the raw scan hot path is
// untouched either way.
func WithProfile(ctx context.Context) context.Context {
	return qtrace.NewContext(ctx, qtrace.New(""))
}

// Metrics reports the adaptive-structure state of a raw table.
type Metrics = core.TableMetrics

// Metrics returns instrumentation counters for a table (zero value if the
// table has not been queried yet).
func (db *DB) Metrics(table string) Metrics { return db.eng.Metrics(table) }

// Stats is an engine-wide observability snapshot: prepared-statement and
// kernel-cache effectiveness, cold/warm scan counts, retry counts and
// parse-work totals over every table touched so far. See core.EngineStats.
type Stats = core.EngineStats

// Stats snapshots engine-wide counters. It reads atomics and short-lived
// mutexes only — never table locks — so calling it from a metrics scraper
// cannot stall query traffic (the numbers trail scans in flight, which
// flush their counters at close).
func (db *DB) Stats() Stats { return db.eng.Stats() }

// TableStats returns the non-blocking per-table counter snapshot for every
// table at least one query has touched, keyed by table name.
func (db *DB) TableStats() map[string]Metrics { return db.eng.TableStatsLite() }

// TableInfo describes one catalog table for introspection surfaces (the
// nodbd /tables and /schema endpoints).
type TableInfo struct {
	Name    string
	Path    string
	Format  string
	Columns []Column
}

// Tables lists the catalog's registered tables in name order.
func (db *DB) Tables() []TableInfo {
	tbls := db.eng.Catalog().Tables()
	out := make([]TableInfo, 0, len(tbls))
	for _, t := range tbls {
		ti := TableInfo{Name: t.Name, Path: t.Path, Format: string(t.Format)}
		for _, c := range t.Columns {
			ti.Columns = append(ti.Columns, Column{Name: c.Name, Type: c.Type})
		}
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Checkpoint synchronously persists every table's dirty adaptive state and
// the hot prepared-statement texts to their sidecar files (see
// Options.Sidecar). The background checkpointer makes calling this
// optional; it exists for "flush now" moments — before a planned shutdown,
// after a bulk INSERT, from an admin endpoint. Errors when sidecar
// persistence is not enabled.
func (db *DB) Checkpoint(ctx context.Context) error { return db.eng.Checkpoint(ctx) }

// Close releases all files and auxiliary structures. With sidecar
// persistence enabled it takes a final checkpoint first.
func (db *DB) Close() error { return db.eng.Close() }
