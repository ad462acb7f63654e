// Package format defines the engine↔storage boundary of the in-situ
// engine: a registered raw-format source API. A format adapter binds a
// declared schema to a raw file and produces scan operators; the engine
// (internal/core) routes every table through the registry and never
// mentions a concrete format again — adding a format means registering a
// Driver, not editing the engine.
//
// Beyond the interface, the package carries the scan machinery every
// format shares, so a new adapter starts from the same building blocks the
// CSV engine uses:
//
//   - TableLock — the context-aware per-table readers-writer lock
//     (recording scans exclusive, warm cache readers shared),
//   - State — the adaptive auxiliary structures of one table (positional
//     map, binary value cache, statistics, counters) plus the standard
//     access-method decision (NewScan),
//   - GuardedScan — the leaf operator that defers the access-method choice
//     to Open, under the table lock,
//   - CacheScan — the vectorized scan that serves a query entirely from
//     the binary cache,
//   - Pool — the partitioned worker-pool plumbing that merges per-shard
//     batch streams back into file order through exec.OrderedBatchSource,
//   - LineScan — the in-situ scan of every line-oriented format (see below).
//
// Adding a line-oriented format (newline-terminated tuples: CSV, JSONL)
// takes a LineDecoder — per-scan Begin, per-line StartLine that may skip
// the line, and Field: attribute col of this line as a datum, with access
// to the scan's row number, counters and positional-map cursors/writer —
// plus a RowEncoder for INSERT. The adapter's OpenScan is
// State.OpenLineScan and its Append is State.AppendRows. Partitioning
// over private shards and the ordered merge, caching, statistics, sidecar
// restore, cancellation, LIMIT budgets, fault retries, row-number rebasing
// on RowError and INSERT rollback all come with the frame, tested once
// (linescan_test.go) for every such format. Formats that are not
// line-oriented (FITS) build their scans on NewScan and Pool directly.
//
// This is the raw-data literature's framing of format generality as an API
// problem (Zhang, "Code Generation Techniques for Raw Data Processing":
// per-format processing behind a uniform raw-access interface); NoDB §5.3
// argues the same when it extends PostgresRaw to FITS.
package format

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/iofault"
	"nodb/internal/schema"
	"nodb/internal/stats"
)

// Env carries the engine configuration a format adapter may care about.
// The aux-structure switches are derived from the engine mode (a cache-only
// engine sets Cache but not AttrPointers, and so on); adapters are free to
// ignore switches that make no sense for their format — FITS has no use for
// a positional map, its attribute positions being implicit.
type Env struct {
	// PosMap enables the positional map (at minimum tuple-start offsets).
	PosMap bool
	// AttrPointers additionally records per-attribute positions in the map.
	AttrPointers bool
	// Cache enables the binary value cache.
	Cache bool
	// Statistics enables on-the-fly statistics collection.
	Statistics bool
	// FullParse forces converting every attribute of every tuple
	// (external-files straw man); adapters honor it where it applies.
	FullParse bool

	// PMBudget caps the positional map's attribute-position bytes.
	PMBudget int64
	// PMChunkRows overrides the positional map chunk height.
	PMChunkRows int
	// CacheBudget caps the binary cache in bytes; <= 0 is unlimited.
	CacheBudget int64
	// ScanChunkSize overrides the raw-file read chunk.
	ScanChunkSize int
	// Parallelism caps the worker goroutines of a partitioned cold scan
	// (0 = GOMAXPROCS, 1 = always sequential).
	Parallelism int
	// BatchSize is the vectorized batch height (0 = exec.DefaultBatchSize).
	BatchSize int
	// ScanRetries bounds how many additional cold attempts a scan makes
	// after a retryable raw-file fault (0 = default of 2, negative = none).
	ScanRetries int

	// Sidecar, when non-nil, persists each table's adaptive state across
	// restarts: NewState asks it to reload a checkpoint at open, recording
	// scans mark the table dirty for the background checkpointer, and
	// INSERT appends journal the post-append fingerprint. The engine wires
	// the concrete manager (internal/sidecar); format only declares the
	// seam, keeping the dependency one-directional.
	Sidecar SidecarManager
}

// SidecarManager is the persistence seam the engine installs into Env.
// Implementations live above this package (internal/sidecar); State calls
// them at well-defined lock points.
type SidecarManager interface {
	// LoadLocked restores a previously checkpointed sidecar into st. It is
	// called once per table at open, with st's table lock held exclusively;
	// any corrupt, stale or mismatched sidecar must be discarded (the table
	// simply starts cold — never wrong rows).
	LoadLocked(st *State)
	// MarkDirty schedules st for a (debounced) background checkpoint. It is
	// called after a recording scan releases the table lock; it must not
	// block.
	MarkDirty(st *State)
	// JournalAppend records st's post-append fingerprint in the sidecar's
	// append journal, so a checkpoint taken before the append still
	// validates as FileAppended on reload. Called under st's exclusive
	// table lock, right after a successful INSERT append. Best effort.
	JournalAppend(st *State)
	// Close drains pending checkpoints and stops the background worker.
	Close() error
}

// Caps declares what a format can do, so the engine gates modes on
// capabilities instead of format names.
type Caps struct {
	// Loadable formats support bulk-loading into heap pages (ModeLoadFirst).
	Loadable bool
	// LoadErr is the adapter-authored error text the engine reports when a
	// load is requested for a non-loadable format.
	LoadErr string
	// Partitionable formats can split a scan into parallel shards.
	Partitionable bool
}

// Source is one table's raw-format adapter: the schema binding plus the
// scan entry point the planner reaches through the engine. Implementations
// must be safe for concurrent use; the shared State/TableLock machinery
// provides the standard locking regime.
type Source interface {
	// Table returns the bound schema (name, columns, path, format).
	Table() *schema.Table
	// Stats returns collected statistics, or nil when the format keeps none.
	Stats() *stats.Table
	// RowCount returns the known row count, or -1 when unknown.
	RowCount() int64
	// OpenScan creates (without opening) the leaf operator emitting the
	// table ordinals in cols for tuples accepted by every conjunct, as
	// column-major batches. ctx bounds the execution: implementations
	// observe cancellation at scan-progress boundaries (every ~256 rows).
	OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error)
	// Metrics snapshots the auxiliary-structure instrumentation. It waits
	// for a recording scan of the table in flight, so the picture is
	// consistent.
	Metrics() Metrics
	// StatsLite snapshots the atomically maintained subset of Metrics
	// without taking the table lock — for observability scrapes that must
	// never block behind a scan.
	StatsLite() Metrics
	// Invalidate drops all auxiliary state, forcing the next query to
	// rebuild it. It waits for scans of the table in flight.
	Invalidate()
	// Close releases the adapter's resources (open files).
	Close() error
}

// Appender is implemented by sources whose raw file supports appending
// rows (the paper's §4.5 internal updates). The engine's INSERT path uses
// it; formats without it reject INSERT.
type Appender interface {
	Append(ctx context.Context, rows [][]datum.Datum) error
}

// Driver creates Sources for one registered format.
type Driver interface {
	// Open binds a declared table to its raw file.
	Open(tbl *schema.Table, env Env) (Source, error)
	// Caps reports the format's capabilities (known without opening files).
	Caps() Caps
}

var (
	regMu    sync.Mutex
	registry = map[string]Driver{}
)

// Register adds a format driver under its name (lower-case). Registering a
// duplicate name panics — formats are wired at init time, so a collision is
// a programming error.
func Register(name string, d Driver) {
	regMu.Lock()
	defer regMu.Unlock()
	name = strings.ToLower(name)
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("format: driver %q registered twice", name))
	}
	registry[name] = d
}

// Lookup resolves a schema format to its driver. The error names the
// registered formats, so a typo in a schema file is self-explaining.
func Lookup(f schema.Format) (Driver, error) {
	regMu.Lock()
	defer regMu.Unlock()
	if d, ok := registry[strings.ToLower(f.String())]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("unknown format %q (registered formats: %s)",
		f.String(), strings.Join(namesLocked(), ", "))
}

// Names lists the registered format names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	// Schema files validate format names against this registry without the
	// schema package depending on it.
	schema.SetFormatValidator(func(f schema.Format) error {
		_, err := Lookup(f)
		return err
	})
}

// Table adapts a Source to the planner's table interface (plan.Table is
// satisfied structurally; this package does not import the planner).
type Table struct{ Src Source }

// Name returns the table name.
func (t Table) Name() string { return t.Src.Table().Name }

// Columns returns the schema in declaration order.
func (t Table) Columns() []schema.Column { return t.Src.Table().Columns }

// Stats returns collected statistics, or nil.
func (t Table) Stats() *stats.Table { return t.Src.Stats() }

// RowCount returns the known row count, or -1.
func (t Table) RowCount() int64 { return t.Src.RowCount() }

// Scan creates the leaf operator.
func (t Table) Scan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return t.Src.OpenScan(ctx, cols, conjuncts)
}

// EnsureTrailingNewline appends '\n' to f when it is non-empty and its
// last byte is not one — the guard every line-oriented Appender needs so
// the first appended row cannot merge onto a final line that lacks a
// newline.
func EnsureTrailingNewline(f iofault.AppendFile) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() == 0 {
		return nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.WriteString("\n")
	}
	return err
}

// AppendGuarded is the shared body of every line-oriented Appender: it
// captures the file's pre-append size, applies the trailing-newline
// guard, runs write, and on any failure truncates the file back to the
// captured size — so a half-written row never survives as a permanently
// torn line. Errors carry the table name and wrap the underlying cause.
func AppendGuarded(f iofault.AppendFile, table string, write func() error) error {
	fi, err := f.Stat()
	if err != nil {
		return WrapFileErr(table, err)
	}
	pre := fi.Size()
	if err := EnsureTrailingNewline(f); err != nil {
		return WrapFileErr(table, err)
	}
	if err := write(); err != nil {
		if terr := f.Truncate(pre); terr != nil {
			return fmt.Errorf("format: table %s: append failed (%w); rollback also failed: %w", table, err, terr)
		}
		return fmt.Errorf("format: table %s: append rolled back: %w", table, err)
	}
	return nil
}

// NeededColumns unions output and conjunct columns, preserving first-seen
// order.
func NeededColumns(cols []int, conjuncts []expr.Expr) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, cj := range conjuncts {
		for _, c := range expr.DistinctColumns(cj) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// OutputSchema maps table ordinals to the executor column schema.
func OutputSchema(tbl *schema.Table, cols []int) []exec.Col {
	out := make([]exec.Col, len(cols))
	for i, c := range cols {
		out[i] = exec.Col{Name: tbl.Columns[c].Name, Type: tbl.Columns[c].Type}
	}
	return out
}
