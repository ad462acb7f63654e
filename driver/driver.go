// Package nodbdriver registers the NoDB in-situ engine as a database/sql
// driver named "nodb", so the whole stdlib database tooling — connection
// pooling, sql.Rows, prepared statements, named arguments, contexts —
// works over raw data files with no loading step:
//
//	import (
//		"database/sql"
//
//		_ "nodb/driver"
//	)
//
//	db, err := sql.Open("nodb", "schema=warehouse.nodb")
//	rows, err := db.QueryContext(ctx,
//		"SELECT city, sum(amount) FROM sales WHERE day >= ? GROUP BY city", day)
//
// # Data source names
//
// The DSN is a list of key=value pairs separated by semicolons or spaces.
// Keys:
//
//	schema        (required) path to a schema declaration file; see the
//	              nodb.Catalog.LoadSchemaFile format. Stanzas may carry a
//	              "format csv|fits|jsonl" clause (any registered raw
//	              format), so FITS and JSON-Lines tables are one DSN away
//	dir           directory data paths resolve against (default: the
//	              schema file's directory)
//	mode          pm+cache | pm | cache | external-files | load-first
//	              (default pm+cache)
//	parallelism   worker goroutines for cold scans (0 = GOMAXPROCS)
//	batch         vectorized batch size (0 = 1024)
//	pm-budget     positional map budget in bytes (0 = unlimited)
//	cache-budget  binary cache budget in bytes (0 = unlimited)
//	stats         on | off (default on)
//	data-dir      where load-first mode writes heap files
//	sidecar       on | off (default off) — persist positional maps, hot
//	              cached columns and statistics to crash-safe sidecar
//	              files so a restarted engine starts warm
//	sidecar-dir   directory for sidecar files (default: next to each raw
//	              data file)
//	sidecar-max-bytes
//	              per-table sidecar size budget in bytes (0 = unlimited)
//
// Every connection of one sql.DB shares a single engine, so the adaptive
// structures warm once and serve the whole pool; the engine's per-table
// synchronization makes the pool's concurrency safe.
package nodbdriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodb"
)

// ErrBadDSN reports a malformed data source name. Every DSN parse failure
// wraps it, so callers can classify configuration mistakes with
// errors.Is(err, nodbdriver.ErrBadDSN) without matching message text.
var ErrBadDSN = errors.New("nodb driver: bad DSN")

func init() {
	sql.Register("nodb", &Driver{})
}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct{}

// Open opens a connection to the engine described by the DSN.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once and returns a connector whose
// connections all share one engine.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &Connector{cfg: cfg}, nil
}

// config is a parsed DSN.
type config struct {
	schema string
	dir    string
	opts   nodb.Options
}

func parseDSN(dsn string) (config, error) {
	var cfg config
	fields := strings.FieldsFunc(dsn, func(r rune) bool { return r == ';' || r == ' ' || r == '\t' || r == '\n' })
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return cfg, fmt.Errorf("%w: item %q is not key=value", ErrBadDSN, f)
		}
		if v == "" {
			return cfg, fmt.Errorf("%w: key %q has an empty value", ErrBadDSN, k)
		}
		switch strings.ToLower(k) {
		case "schema":
			cfg.schema = v
		case "dir":
			cfg.dir = v
		case "mode":
			m, err := nodb.ParseMode(v)
			if err != nil {
				return cfg, fmt.Errorf("%w: %w", ErrBadDSN, err)
			}
			cfg.opts.Mode = m
		case "parallelism":
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("%w: bad parallelism %q", ErrBadDSN, v)
			}
			cfg.opts.Parallelism = n
		case "batch":
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("%w: bad batch %q", ErrBadDSN, v)
			}
			cfg.opts.BatchSize = n
		case "pm-budget":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("%w: bad pm-budget %q", ErrBadDSN, v)
			}
			cfg.opts.PositionalMapBudget = n
		case "cache-budget":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("%w: bad cache-budget %q", ErrBadDSN, v)
			}
			cfg.opts.CacheBudget = n
		case "stats":
			switch strings.ToLower(v) {
			case "on", "true", "1":
				cfg.opts.DisableStatistics = false
			case "off", "false", "0":
				cfg.opts.DisableStatistics = true
			default:
				return cfg, fmt.Errorf("%w: bad stats %q (want on/off)", ErrBadDSN, v)
			}
		case "data-dir":
			cfg.opts.DataDir = v
		case "sidecar":
			switch strings.ToLower(v) {
			case "on", "true", "1":
				cfg.opts.Sidecar.Enable = true
			case "off", "false", "0":
				cfg.opts.Sidecar.Enable = false
			default:
				return cfg, fmt.Errorf("%w: bad sidecar %q (want on/off)", ErrBadDSN, v)
			}
		case "sidecar-dir":
			cfg.opts.Sidecar.Dir = v
		case "sidecar-max-bytes":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("%w: bad sidecar-max-bytes %q", ErrBadDSN, v)
			}
			cfg.opts.Sidecar.MaxBytes = n
		default:
			return cfg, fmt.Errorf("%w: unknown key %q", ErrBadDSN, k)
		}
	}
	if cfg.schema == "" {
		return cfg, fmt.Errorf("%w: missing required schema=PATH", ErrBadDSN)
	}
	if cfg.dir == "" {
		cfg.dir = filepath.Dir(cfg.schema)
	}
	return cfg, nil
}

// Connector creates connections sharing one lazily opened engine. It
// implements driver.Connector and io.Closer — sql.DB.Close closes the
// engine through it.
type Connector struct {
	cfg  config
	once sync.Once
	db   *nodb.DB
	err  error
}

// Connect implements driver.Connector.
func (c *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	c.once.Do(func() {
		cat := nodb.NewCatalog()
		if err := cat.LoadSchemaFile(c.cfg.schema, c.cfg.dir); err != nil {
			c.err = err
			return
		}
		c.db, c.err = nodb.Open(cat, c.cfg.opts)
	})
	if c.err != nil {
		return nil, c.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &conn{db: c.db}, nil
}

// Driver implements driver.Connector.
func (c *Connector) Driver() driver.Driver { return &Driver{} }

// Close releases the shared engine.
func (c *Connector) Close() error {
	if c.db != nil {
		return c.db.Close()
	}
	return nil
}

// conn is one pooled connection. The engine itself is concurrency-safe, so
// a conn is just a handle.
type conn struct {
	db *nodb.DB
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	s, err := c.db.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &stmt{s: s}, nil
}

// Close implements driver.Conn; the engine belongs to the connector.
func (c *conn) Close() error { return nil }

// Begin implements driver.Conn. The engine's raw files are the single
// source of truth and appends are atomic per statement; multi-statement
// transactions are not supported.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("nodb driver: transactions are not supported")
}

// Ping implements driver.Pinger.
func (c *conn) Ping(ctx context.Context) error { return ctx.Err() }

// CheckNamedValue implements driver.NamedValueChecker, admitting named
// arguments (bound to :name placeholders) alongside the default value set.
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	v, err := driver.DefaultParameterConverter.ConvertValue(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v
	return nil
}

// QueryContext implements driver.QueryerContext.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	rows, err := c.db.QueryContext(ctx, query, namedToArgs(args)...)
	if err != nil {
		return nil, err
	}
	return newRows(rows), nil
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	n, err := c.db.ExecContext(ctx, query, namedToArgs(args)...)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(n), nil
}

// namedToArgs converts driver named values into engine arguments:
// positional values stay positional, named values carry their name.
func namedToArgs(args []driver.NamedValue) []any {
	out := make([]any, 0, len(args))
	for _, a := range args {
		if a.Name != "" {
			out = append(out, sql.Named(a.Name, a.Value))
		} else {
			out = append(out, a.Value)
		}
	}
	return out
}

// stmt adapts a prepared statement.
type stmt struct {
	s *nodb.Stmt
}

// Close implements driver.Stmt.
func (s *stmt) Close() error { return s.s.Close() }

// NumInput implements driver.Stmt: -1 (skip the arity check) when named
// parameters are involved, since one named value may bind many
// placeholders.
func (s *stmt) NumInput() int {
	if len(s.s.ParamNames()) > 0 {
		return -1
	}
	return s.s.NumParams()
}

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), valuesToNamed(args))
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), valuesToNamed(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	rows, err := s.s.QueryContext(ctx, namedToArgs(args)...)
	if err != nil {
		return nil, err
	}
	return newRows(rows), nil
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	n, err := s.s.ExecContext(ctx, namedToArgs(args)...)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(n), nil
}

func valuesToNamed(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, v := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// rows adapts the streaming cursor.
type rows struct {
	r     *nodb.Rows
	cols  []nodb.Column
	names []string
}

func newRows(r *nodb.Rows) *rows {
	cols := r.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return &rows{r: r, cols: cols, names: names}
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.names }

// Close implements driver.Rows.
func (r *rows) Close() error { return r.r.Close() }

// Next implements driver.Rows, streaming one row into dest.
func (r *rows) Next(dest []driver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	for i, v := range r.r.Values() {
		dest[i] = toDriverValue(v)
	}
	return nil
}

// toDriverValue maps a typed engine value onto the driver.Value set.
func toDriverValue(v nodb.Value) driver.Value {
	if v.Null() {
		return nil
	}
	switch v.T {
	case nodb.Int:
		return v.Int()
	case nodb.Float:
		return v.Float()
	case nodb.Bool:
		return v.Bool()
	case nodb.Date:
		t, err := time.ParseInLocation("2006-01-02", v.DateString(), time.UTC)
		if err != nil {
			return v.DateString()
		}
		return t
	default:
		return v.Text()
	}
}

// ColumnTypeDatabaseTypeName implements driver.RowsColumnTypeDatabaseTypeName.
func (r *rows) ColumnTypeDatabaseTypeName(i int) string {
	switch r.cols[i].Type {
	case nodb.Int:
		return "INT"
	case nodb.Float:
		return "FLOAT"
	case nodb.Text:
		return "TEXT"
	case nodb.Date:
		return "DATE"
	case nodb.Bool:
		return "BOOL"
	default:
		return "UNKNOWN"
	}
}

// ColumnTypeScanType implements driver.RowsColumnTypeScanType.
func (r *rows) ColumnTypeScanType(i int) reflect.Type {
	switch r.cols[i].Type {
	case nodb.Int:
		return reflect.TypeOf(int64(0))
	case nodb.Float:
		return reflect.TypeOf(float64(0))
	case nodb.Bool:
		return reflect.TypeOf(false)
	case nodb.Date:
		return reflect.TypeOf(time.Time{})
	default:
		return reflect.TypeOf("")
	}
}
