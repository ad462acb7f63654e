// Package core implements PostgresRaw, the NoDB prototype of the paper:
// a query engine that executes SQL directly over raw data files with no
// a-priori loading, adaptively building an auxiliary positional map
// (internal/posmap), a binary value cache (internal/colcache) and
// statistics (internal/stats) as queries touch the data.
//
// The engine supports the operating modes compared in the paper's
// evaluation:
//
//	ModePMCache       PostgresRaw PM+C — positional map and cache (Fig 5).
//	ModePM            positional map only.
//	ModeCache         cache plus the minimal end-of-line map only.
//	ModeExternalFiles straw-man external tables: no auxiliary state at all;
//	                  every query re-parses the file (MySQL CSV engine /
//	                  DBMS X external files behaviour).
//	ModeLoadFirst     conventional DBMS: bulk-load into slotted pages
//	                  (internal/storage) before the first query.
//
// All modes share the same SQL front end, planner and executor, mirroring
// how PostgresRaw reuses PostgreSQL's query stack above its raw-file scan
// operator: only the scan below differs.
//
// Raw formats are pluggable: every table reaches the planner through the
// format registry (internal/format) — the engine resolves a table's
// declared format to a registered format.Driver and scans through the
// resulting format.Source, never mentioning a concrete format. That is the
// one table path in every mode: in load-first mode the CSV driver opens a
// source over the bulk-loaded heap, scanned by the same column-scan frame
// as the binary cache, and the other formats refuse to open. CSV, FITS
// and JSON-Lines adapters are built in (see formats.go); all of them share
// the same scan machinery (per-table lock, guarded access-method decision,
// partitioned cold scan, binary-cache fast path).
//
// An Engine is safe for concurrent use. Sessions share the adaptive
// structures through per-table locks: scans that record into the
// positional map, cache or statistics hold a table exclusively (making the
// first parse of a cold table single-flight — concurrent queries wait and
// then reuse what it built), while fully cached read-only scans share it
// and run in parallel. Statements are prepared through an LRU cache keyed
// on normalized SQL; executions are bounded by a context.Context observed
// at scan-progress boundaries.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/format"
	"nodb/internal/kernel"
	"nodb/internal/plan"
	"nodb/internal/qtrace"
	"nodb/internal/schema"
	"nodb/internal/sidecar"
	"nodb/internal/sqlparse"
	"nodb/internal/storage"
)

// Mode selects the engine's access-method strategy.
type Mode int

// Engine operating modes (see package comment).
const (
	ModePMCache Mode = iota
	ModePM
	ModeCache
	ModeExternalFiles
	ModeLoadFirst
)

var modeNames = [...]string{"pm+cache", "pm", "cache", "external-files", "load-first"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "unknown"
}

// Options configure an Engine.
type Options struct {
	// Mode selects the access strategy (default ModePMCache).
	Mode Mode
	// PMBudget caps the positional map's in-memory attribute-position
	// bytes; <= 0 is unlimited. Tuple start offsets are always kept.
	PMBudget int64
	// CacheBudget caps the binary cache size in bytes; <= 0 is unlimited.
	CacheBudget int64
	// Statistics enables on-the-fly statistics collection and
	// statistics-driven planning (paper §4.4, Fig 12). Default off; the
	// standard PostgresRaw configuration enables it.
	Statistics bool
	// FullParse forces tokenizing and converting every attribute of every
	// tuple, disabling selective parsing. This models the MySQL CSV
	// engine / external tables straw-man of Fig 7 and is only meaningful
	// with ModeExternalFiles.
	FullParse bool
	// DataDir is where ModeLoadFirst writes heap files (default: next to
	// the raw files).
	DataDir string
	// PoolFrames sizes the buffer pool for ModeLoadFirst (default 1024
	// frames = 8 MB).
	PoolFrames int
	// ScanChunkSize overrides the raw-file read chunk (default 1 MB).
	ScanChunkSize int
	// Parallelism is how many worker goroutines a cold in-situ scan may
	// use to process file partitions concurrently (0 = GOMAXPROCS,
	// 1 = always sequential). Line-oriented formats partition into
	// newline-aligned byte ranges; fixed-width formats (FITS) partition by
	// row index. Warm scans — any positional map or cache content present
	// — run sequentially to exploit the adaptive structures, and so do
	// budgeted configurations (PMBudget or CacheBudget set), whose memory
	// caps per-worker shards would not respect. Results are identical for
	// every setting.
	Parallelism int
	// BatchSize is how many rows a vectorized batch carries between
	// operators (0 = exec.DefaultBatchSize). Results are identical for any
	// setting >= 1. Only tests and DisableVectorized set it; nodb.Options
	// does not expose it.
	BatchSize int
	// DisableVectorized runs every operator over one-row batches through
	// the row interpreter: Open translates it into BatchSize 1 plus
	// DisableKernels, and the planner makes the operators it builds
	// (join, aggregation output, sort) emit one-row batches too. Results
	// are byte-identical to the default. The switch serves the repo
	// benchmark's result oracle and the ablations that compare the two.
	DisableVectorized bool
	// PlanCacheSize caps the prepared-statement LRU cache (entries, not
	// bytes; 0 = 256). Each cached entry holds the parameterized parse
	// result AND its resolved plan skeleton, both shared by all sessions;
	// executions re-bind the skeleton's literal slots and re-derive the
	// statistics-driven choices (conjunct order, join order) from the bound
	// values, so late binding survives the caching. Only tests set it;
	// nodb.Options does not expose it.
	PlanCacheSize int
	// DisableKernels turns off the query-shape kernel compiler: plans bind
	// no compiled closures, so expr.EvalBatch / expr.FilterBatch run the
	// row interpreter at every live position. Results are identical. The
	// switch serves the repo benchmark's result oracle and the ablations
	// that compare the two paths; it is also an escape hatch.
	DisableKernels bool
	// ScanRetries bounds how many additional cold attempts a scan makes
	// after a retryable raw-file fault — the file changed or vanished
	// underneath the adaptive structures, or a read failed (0 = default of
	// 2, negative = no retries). Recovery invalidates the table's auxiliary
	// state and rebuilds from the current bytes; when the budget runs out
	// the query fails with a typed error (ErrRetriesExhausted), never wrong
	// rows. Only tests set it; nodb.Options does not expose it.
	ScanRetries int
	// Sidecar configures crash-safe persistence of the adaptive state
	// (positional maps, column caches, statistics, hot statements) into
	// per-table sidecar files, so a restarted engine warm-starts instead of
	// re-paying every cold scan.
	Sidecar SidecarOptions
}

// SidecarOptions configure durable adaptive state (internal/sidecar).
type SidecarOptions struct {
	// Enable turns sidecar persistence on.
	Enable bool
	// Dir is where sidecar files live. Empty means next to each raw file
	// (<raw path>.nodbaux). nodb.Open verifies that the directory exists
	// or can be created, and is writable.
	Dir string
	// MaxBytes caps each sidecar file's size (0 = unlimited). Under a
	// budget, the most-accessed cached columns persist first and the rest
	// are rebuilt on demand after a restart.
	MaxBytes int64
}

// env derives the format-adapter environment from the engine options: the
// mode becomes the set of auxiliary structures adapters should build.
func (o Options) env() format.Env {
	env := format.Env{
		Statistics:    o.Statistics,
		FullParse:     o.FullParse,
		PMBudget:      o.PMBudget,
		CacheBudget:   o.CacheBudget,
		ScanChunkSize: o.ScanChunkSize,
		Parallelism:   o.Parallelism,
		BatchSize:     o.BatchSize,
		ScanRetries:   o.ScanRetries,
	}
	switch o.Mode {
	case ModePMCache:
		env.PosMap, env.AttrPointers, env.Cache = true, true, true
	case ModePM:
		env.PosMap, env.AttrPointers = true, true
	case ModeCache:
		// Minimal map: tuple starts only (paper Fig 5, "PostgresRaw C").
		env.PosMap, env.Cache = true, true
	case ModeExternalFiles:
		// No adaptive structures.
	case ModeLoadFirst:
		// No adaptive structures: tables are bulk-loaded into heap pages
		// read through one shared buffer pool.
		frames := o.PoolFrames
		if frames <= 0 {
			frames = 1024
		}
		env.Pool, env.DataDir = storage.NewPool(frames), o.DataDir
	}
	return env
}

// Engine executes SQL over the tables of a catalog. It is safe for
// concurrent use (see the package comment for the locking regime).
type Engine struct {
	cat  *schema.Catalog
	opts Options
	env  format.Env

	mu      sync.Mutex // guards the lazy per-table source map
	sources map[string]format.Source

	stmts   *stmtCache
	kernels *kernel.Cache    // nil when Options.DisableKernels
	sidecar *sidecar.Manager // nil unless Options.Sidecar.Enable
}

// Open creates an engine over the catalog. Raw tables are never read until
// a query touches them — the data-to-query time of a NoDB engine is zero.
func Open(cat *schema.Catalog, opts Options) (*Engine, error) {
	if int(opts.Mode) >= len(modeNames) || opts.Mode < 0 {
		return nil, fmt.Errorf("core: unknown mode %d", opts.Mode)
	}
	if opts.DisableVectorized {
		opts.BatchSize, opts.DisableKernels = 1, true
	}
	e := &Engine{
		cat:     cat,
		opts:    opts,
		env:     opts.env(),
		sources: make(map[string]format.Source),
		stmts:   newStmtCache(opts.PlanCacheSize),
	}
	if !opts.DisableKernels {
		e.kernels = kernel.NewCache(0)
	}
	if opts.Sidecar.Enable && opts.Mode != ModeLoadFirst {
		e.sidecar = sidecar.New(sidecar.Config{
			Dir:      opts.Sidecar.Dir,
			MaxBytes: opts.Sidecar.MaxBytes,
			StmtPath: stmtPath(cat, opts.Sidecar.Dir),
		})
		e.env.Sidecar = e.sidecar
		// Re-prime the statement cache from the last run: prepare each
		// persisted text and resolve its plan skeleton, so the first real
		// execution only re-binds. Best effort — a text that no longer
		// parses or resolves is skipped.
		for _, text := range e.sidecar.LoadStatements() {
			p, err := e.PrepareStmt(text)
			if err != nil || !p.IsSelect() {
				continue
			}
			_, _ = p.skeleton()
		}
	}
	return e, nil
}

// stmtPath decides where the hot-statement sidecar lives: in the
// configured sidecar directory, or next to the (lexicographically first)
// raw table file so the choice is deterministic across runs.
func stmtPath(cat *schema.Catalog, dir string) string {
	if dir != "" {
		return filepath.Join(dir, "statements.nodbaux")
	}
	best := ""
	for _, tbl := range cat.Tables() {
		if d := filepath.Dir(tbl.Path); best == "" || d < best {
			best = d
		}
	}
	if best == "" {
		return ""
	}
	return filepath.Join(best, "statements.nodbaux")
}

// Checkpoint synchronously persists all dirty adaptive state and the hot
// prepared-statement texts. It returns an error when sidecar persistence
// is not enabled, or when any table checkpoint fails (the remaining tables
// are still attempted).
func (e *Engine) Checkpoint(ctx context.Context) error {
	if e.sidecar == nil {
		return fmt.Errorf("core: sidecar persistence is not enabled")
	}
	first := e.sidecar.SaveStatements(e.stmts.hotTexts(0))
	if err := e.sidecar.Flush(ctx); err != nil && first == nil {
		first = err
	}
	return first
}

// SidecarStats reports the sidecar manager's counters (zero value when
// persistence is disabled).
func (e *Engine) SidecarStats() sidecar.Stats {
	if e.sidecar == nil {
		return sidecar.Stats{}
	}
	return e.sidecar.Stats()
}

// Catalog returns the engine's schema catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// Mode returns the configured mode.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// Result is a fully materialized query result.
type Result struct {
	Cols []exec.Col
	Rows []exec.Row
}

// Prepared is a parsed, parameterized statement shared by every session
// that prepares the same (normalized) SQL. Alongside the parse result it
// caches the statement's resolved plan skeleton (plan.BuildSkeleton): the
// first execution pays resolution and classification, later executions
// only re-bind the skeleton's literal slots and re-derive the value-driven
// choices (conjunct order, join order) — so the statistics decisions still
// reflect each execution's actual parameter values. Both halves are
// immutable and safe for concurrent use.
type Prepared struct {
	e    *Engine
	sel  *sqlparse.Select // exactly one of sel / ins is set
	ins  *sqlparse.Insert
	text string // normalized SQL (the cache key)

	expl        bool // EXPLAIN wrapper around sel
	explAnalyze bool // EXPLAIN ANALYZE: execute and annotate

	numParams  int
	paramNames []string

	skelMu sync.Mutex
	skel   *plan.Skeleton // nil until the first execution resolves it
}

// IsSelect reports whether the statement returns rows.
func (p *Prepared) IsSelect() bool { return p.sel != nil }

// NumParams returns how many positional parameters ($n / ?) the statement
// takes.
func (p *Prepared) NumParams() int { return p.numParams }

// ParamNames returns the named (:name) parameters in order of first
// appearance.
func (p *Prepared) ParamNames() []string { return p.paramNames }

// Text returns the normalized statement text.
func (p *Prepared) Text() string { return p.text }

// PrepareStmt parses sql (or returns the cached parse of an equivalent
// statement) without planning or executing it.
func (e *Engine) PrepareStmt(sql string) (*Prepared, error) {
	key, err := sqlparse.Normalize(sql)
	if err != nil {
		return nil, err
	}
	if p, ok := e.stmts.get(key); ok {
		return p, nil
	}
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{e: e, text: key}
	switch s := stmt.(type) {
	case *sqlparse.Select:
		p.sel, p.numParams, p.paramNames = s, s.NumParams, s.ParamNames
	case *sqlparse.Insert:
		p.ins, p.numParams, p.paramNames = s, s.NumParams, s.ParamNames
	case *sqlparse.Explain:
		p.sel, p.numParams, p.paramNames = s.Stmt, s.NumParams, s.ParamNames
		p.expl, p.explAnalyze = true, s.Analyze
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
	e.stmts.put(key, p)
	return p, nil
}

// Plan binds the parameters and builds the physical plan of a prepared
// SELECT, returning the root operator (not yet opened) for callers that
// stream rows themselves. The operator tree belongs to this execution
// only; ctx bounds it. The first Plan call resolves the statement into a
// cached skeleton; later calls only re-bind it (see Prepared).
func (p *Prepared) Plan(ctx context.Context, params []datum.Datum, named map[string]datum.Datum) (exec.Operator, []exec.Col, error) {
	if p.sel == nil {
		return nil, nil, fmt.Errorf("core: statement returns no rows; use Exec")
	}
	if p.expl {
		return p.planExplain(ctx, params, named)
	}
	return p.planSelect(ctx, params, named)
}

// planSelect is the shared planning path behind Plan and EXPLAIN: bind
// parameters and build the physical plan, attributing skeleton
// resolution to the profile's plan phase and literal binding to its bind
// phase (both no-ops when the context carries no profile).
func (p *Prepared) planSelect(ctx context.Context, params []datum.Datum, named map[string]datum.Datum) (exec.Operator, []exec.Col, error) {
	if err := checkBindings(p, params, named); err != nil {
		return nil, nil, err
	}
	prof := qtrace.FromContext(ctx)
	opts := plan.Options{
		UseStats:    p.e.opts.Statistics,
		Vectorize:   !p.e.opts.DisableVectorized,
		KernelCache: p.e.kernels,
		Ctx:         ctx,
		Params:      params,
		NamedParams: named,
	}
	endPlan := prof.Enter(qtrace.PhasePlan)
	sk, err := p.skeleton()
	endPlan()
	if err != nil {
		return nil, nil, err
	}
	endBind := prof.Enter(qtrace.PhaseBind)
	res, err := sk.Bind(p.e, opts)
	endBind()
	if err != nil {
		return nil, nil, err
	}
	return res.Root, res.Cols, nil
}

// skeleton lazily resolves the statement into its cached plan skeleton —
// the skeleton-cache guarantee that resolution and classification are
// paid once per statement, not per execution. Only a built skeleton
// latches: a build error (e.g. a table file that is briefly unreadable)
// surfaces to this execution but the next one retries, since the Prepared
// is shared engine-wide through the statement cache and must not stay
// poisoned by a transient failure.
func (p *Prepared) skeleton() (*plan.Skeleton, error) {
	p.skelMu.Lock()
	defer p.skelMu.Unlock()
	if p.skel == nil {
		sk, err := plan.BuildSkeleton(p.sel, p.e)
		if err != nil {
			return nil, err
		}
		p.skel = sk
	}
	return p.skel, nil
}

// checkBindings validates parameter arity up front, so the error does not
// depend on which placeholder the planner happens to reach first.
func checkBindings(p *Prepared, params []datum.Datum, named map[string]datum.Datum) error {
	if len(params) != p.numParams {
		return fmt.Errorf("core: statement takes %d positional parameters; got %d", p.numParams, len(params))
	}
	for _, n := range p.paramNames {
		if _, ok := named[n]; !ok {
			return fmt.Errorf("core: no binding for parameter :%s", n)
		}
	}
	return nil
}

// QueryContext parses (through the statement cache), plans and runs a
// SELECT statement with the given parameter bindings, returning the
// materialized result. Cancelling ctx aborts the scan at the next progress
// boundary.
func (e *Engine) QueryContext(ctx context.Context, sql string, params []datum.Datum, named map[string]datum.Datum) (*Result, error) {
	p, err := e.PrepareStmt(sql)
	if err != nil {
		return nil, err
	}
	op, cols, err := p.Plan(ctx, params, named)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: cols, Rows: rows}, nil
}

// Query parses, plans and runs a SELECT statement, returning the
// materialized result. It is QueryContext with a background context and no
// parameters.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryContext(context.Background(), sql, nil, nil)
}

// Prepare parses and plans a SELECT statement, returning the root operator
// (not yet opened) for callers that want to stream rows themselves. It is
// PrepareStmt + Plan with a background context and no parameters.
func (e *Engine) Prepare(sql string) (exec.Operator, []exec.Col, error) {
	p, err := e.PrepareStmt(sql)
	if err != nil {
		return nil, nil, err
	}
	return p.Plan(context.Background(), nil, nil)
}

// Table implements plan.Resolver. Every table reaches the planner through
// its registered format.Source — in load-first mode too, where the CSV
// source is the bulk-loaded heap and other formats refuse to open.
func (e *Engine) Table(name string) (plan.Table, error) {
	tbl, ok := e.cat.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: table %q does not exist", name)
	}
	src, err := e.source(tbl)
	if err != nil {
		return nil, err
	}
	return format.Table{Src: src}, nil
}

// source returns (opening on first use) the format source of a table. The
// engine mutex is held across the open, so concurrent first queries open
// — in load-first mode, bulk-load — a table exactly once.
func (e *Engine) source(tbl *schema.Table) (format.Source, error) {
	drv, err := format.Lookup(tbl.Format)
	if err != nil {
		return nil, fmt.Errorf("core: table %s: %w", tbl.Name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sources[tbl.Name]; ok {
		return s, nil
	}
	s, err := drv.Open(tbl, e.env)
	if err != nil {
		return nil, err
	}
	e.sources[tbl.Name] = s
	return s, nil
}

// Load eagerly bulk-loads every catalog table (ModeLoadFirst only). The
// caller times this to measure the paper's "Load" bars (Figs 7 and 9).
// Tables whose format is not loadable fail with the adapter's error.
func (e *Engine) Load() error {
	if e.opts.Mode != ModeLoadFirst {
		return fmt.Errorf("core: Load is only meaningful in load-first mode")
	}
	for _, tbl := range e.cat.Tables() {
		if _, err := e.Table(tbl.Name); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate drops all auxiliary state of a table (positional map, cache,
// statistics, loaded heap), forcing the next query to rebuild it. Used
// after in-place external updates (paper §4.5). It waits for scans of the
// table in flight.
func (e *Engine) Invalidate(name string) {
	e.mu.Lock()
	src := e.sources[name]
	e.mu.Unlock()
	if src != nil {
		src.Invalidate()
	}
}

// TableMetrics reports the auxiliary-structure state of a raw table, used
// by the benchmark harness (cache usage, positional-map pointers).
type TableMetrics = format.Metrics

// Metrics returns a snapshot for a table (zero value if the table has not
// been touched). It waits for a recording scan of the table in flight, so
// the snapshot is consistent.
func (e *Engine) Metrics(name string) TableMetrics {
	e.mu.Lock()
	src, ok := e.sources[name]
	e.mu.Unlock()
	if !ok {
		return TableMetrics{}
	}
	return src.Metrics()
}

// Close releases all per-table resources. Queries still running have
// undefined behavior, as with database handles generally.
func (e *Engine) Close() error {
	var first error
	if e.sidecar != nil {
		// Final checkpoint while the sources are still alive: persist the
		// hot statements, then drain the background checkpointer (its Close
		// flushes whatever is still dirty).
		first = e.sidecar.SaveStatements(e.stmts.hotTexts(0))
		if err := e.sidecar.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, src := range e.sources {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
