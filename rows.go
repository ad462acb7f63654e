package nodb

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"time"

	"nodb/internal/core"
	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// Rows is a streaming cursor over a query's result, in the style of
// database/sql: call Next until it returns false, then check Err.
//
//	rows, err := db.QueryContext(ctx, "SELECT city, pop FROM cities WHERE pop > ?", 1e6)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var city string
//		var pop int64
//		if err := rows.Scan(&city, &pop); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows are not safe for concurrent use; each cursor belongs to one
// session. Closing releases the table locks and worker goroutines of the
// execution, and happens automatically when the stream ends or errors.
type Rows struct {
	op   exec.Operator
	cols []Column
	b    *exec.Batch // current batch; k is the next live row to gather
	k    int
	buf  []Value // gather buffer behind cur
	cur  []Value // the current row; nil before the first Next and after the end
	err  error
	done bool

	prof    *qtrace.Profile // nil unless the context carried one
	endExec func()          // closes the execute phase; set iff prof != nil
	nrows   int64           // rows delivered, flushed to prof at close
}

// Columns describes the result schema.
func (r *Rows) Columns() []Column { return r.cols }

// Next advances to the next row, returning false at the end of the stream
// or on error (check Err). The underlying execution is torn down
// automatically when Next returns false.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	for r.b == nil || r.k >= r.b.Live() {
		b, err := r.op.NextBatch()
		if err == io.EOF {
			r.close(nil)
			return false
		}
		if err != nil {
			r.close(err)
			return false
		}
		r.b, r.k = b, 0
	}
	if len(r.buf) != len(r.b.Cols) {
		r.buf = make([]Value, len(r.b.Cols))
	}
	r.cur = r.b.Row(r.k, r.buf)
	r.k++
	r.nrows++
	return true
}

// Values returns the current row, or nil once the stream has ended or
// the cursor is closed. The slice is reused between Next calls; copy
// values out if you retain them.
func (r *Rows) Values() []Value { return r.cur }

// Scan copies the current row into dest, which must hold one pointer per
// column: *int, *int64, *float64, *string, *bool, *time.Time, *Value or
// *any. NULLs scan as the zero value into *Value and as nil into *any;
// scanning a NULL into a typed pointer is an error.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("nodb: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("nodb: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := scanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("nodb: Scan column %d (%s): %w", i, r.cols[i].Name, err)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. A cancelled
// context surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// Close tears down the execution early (it is a no-op after the stream
// ended). It returns the first error the cursor saw.
func (r *Rows) Close() error {
	r.close(nil)
	return r.err
}

func (r *Rows) close(err error) {
	if r.done {
		return
	}
	r.done = true
	r.b, r.cur = nil, nil
	cerr := r.op.Close()
	if err == nil {
		err = cerr
	}
	r.err = err
	if r.prof != nil {
		r.endExec()
		r.prof.Count(qtrace.CtrRowsOut, r.nrows)
		if err != nil {
			r.prof.SetError(err.Error())
		}
		r.prof.Finish()
	}
}

// Profile returns a point-in-time view of the query's execution profile,
// or nil when the query ran without one (see WithProfile). Call it after
// the stream ends for a complete account; calling it mid-stream reports
// the live phase and the counters so far.
func (r *Rows) Profile() *Profile {
	if r.prof == nil {
		return nil
	}
	s := r.prof.Snapshot()
	return &s
}

// scanValue converts one datum into a destination pointer.
func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = valueToAny(v)
		return nil
	}
	if v.Null() {
		return fmt.Errorf("cannot scan NULL into %T", dest)
	}
	switch d := dest.(type) {
	case *int64:
		*d = v.Int()
	case *int:
		*d = int(v.Int())
	case *float64:
		*d = v.Float()
	case *string:
		*d = v.Format()
	case *bool:
		*d = v.Bool()
	case *time.Time:
		if v.T != Date {
			return fmt.Errorf("cannot scan %v into *time.Time", v.T)
		}
		t, err := time.ParseInLocation("2006-01-02", v.DateString(), time.UTC)
		if err != nil {
			return err
		}
		*d = t
	case *[]byte:
		*d = []byte(v.Format())
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// valueToAny maps a datum onto the plain Go value database/sql drivers
// exchange: int64, float64, string, bool, time.Time or nil.
func valueToAny(v Value) any {
	if v.Null() {
		return nil
	}
	switch v.T {
	case Int:
		return v.Int()
	case Float:
		return v.Float()
	case Bool:
		return v.Bool()
	case Date:
		t, err := time.ParseInLocation("2006-01-02", v.DateString(), time.UTC)
		if err != nil {
			return v.DateString()
		}
		return t
	default:
		return v.Text()
	}
}

// bindArgs converts user arguments into parameter bindings: positional
// values bind ? and $n in order, sql.Named values bind :name parameters.
func bindArgs(args []any) ([]datum.Datum, map[string]datum.Datum, error) {
	var pos []datum.Datum
	var named map[string]datum.Datum
	for i, a := range args {
		if na, ok := a.(sql.NamedArg); ok {
			d, err := toDatum(na.Value)
			if err != nil {
				return nil, nil, fmt.Errorf("nodb: argument :%s: %w", na.Name, err)
			}
			if named == nil {
				named = make(map[string]datum.Datum)
			}
			named[lowerASCII(na.Name)] = d
			continue
		}
		d, err := toDatum(a)
		if err != nil {
			return nil, nil, fmt.Errorf("nodb: argument %d: %w", i+1, err)
		}
		pos = append(pos, d)
	}
	return pos, named, nil
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// toDatum converts one Go value into a typed SQL value.
func toDatum(a any) (datum.Datum, error) {
	switch v := a.(type) {
	case nil:
		return datum.NewNull(datum.Unknown), nil
	case Value:
		return v, nil
	case bool:
		return datum.NewBool(v), nil
	case int:
		return datum.NewInt(int64(v)), nil
	case int8:
		return datum.NewInt(int64(v)), nil
	case int16:
		return datum.NewInt(int64(v)), nil
	case int32:
		return datum.NewInt(int64(v)), nil
	case int64:
		return datum.NewInt(v), nil
	case uint:
		if uint64(v) > 1<<63-1 {
			return datum.Datum{}, fmt.Errorf("uint value %d overflows int64", v)
		}
		return datum.NewInt(int64(v)), nil
	case uint8:
		return datum.NewInt(int64(v)), nil
	case uint16:
		return datum.NewInt(int64(v)), nil
	case uint32:
		return datum.NewInt(int64(v)), nil
	case uint64:
		if v > 1<<63-1 {
			return datum.Datum{}, fmt.Errorf("uint64 value %d overflows int64", v)
		}
		return datum.NewInt(int64(v)), nil
	case float32:
		return datum.NewFloat(float64(v)), nil
	case float64:
		return datum.NewFloat(v), nil
	case string:
		return datum.NewText(v), nil
	case []byte:
		return datum.NewText(string(v)), nil
	case time.Time:
		return datum.DateFromString(v.UTC().Format("2006-01-02"))
	default:
		return datum.Datum{}, fmt.Errorf("unsupported argument type %T", a)
	}
}

// Stmt is a prepared statement: parsed once (and shared through the
// engine's LRU plan cache with every session preparing the same SQL), then
// executed any number of times with different parameter bindings. Each
// execution re-plans against current statistics with the bound values, so
// selective-parsing field sets and join orders fit the actual parameters.
// A Stmt is safe for concurrent use.
type Stmt struct {
	db *DB
	p  *core.Prepared
}

// PrepareContext prepares a SELECT or INSERT statement with ?, $n or :name
// placeholders.
func (db *DB) PrepareContext(ctx context.Context, query string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := db.eng.PrepareStmt(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, p: p}, nil
}

// Prepare is PrepareContext with a background context.
func (db *DB) Prepare(query string) (*Stmt, error) {
	return db.PrepareContext(context.Background(), query)
}

// Select reports whether the statement returns rows (SELECT) or not
// (INSERT).
func (s *Stmt) Select() bool { return s.p.IsSelect() }

// NumParams returns how many positional parameters the statement takes.
func (s *Stmt) NumParams() int { return s.p.NumParams() }

// ParamNames returns the statement's named parameters in order of first
// appearance.
func (s *Stmt) ParamNames() []string { return s.p.ParamNames() }

// QueryContext executes the prepared SELECT with the given arguments and
// returns a streaming cursor.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	pos, named, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return s.db.queryPrepared(ctx, s.p, pos, named)
}

// Query is QueryContext with a background context.
func (s *Stmt) Query(args ...any) (*Rows, error) {
	return s.QueryContext(context.Background(), args...)
}

// ExecContext executes the prepared statement and returns the number of
// rows inserted (for INSERT) or returned (for SELECT, which it drains).
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (int64, error) {
	pos, named, err := bindArgs(args)
	if err != nil {
		return 0, err
	}
	_, n, err := s.db.eng.ExecPrepared(ctx, s.p, pos, named)
	return n, err
}

// Exec is ExecContext with a background context.
func (s *Stmt) Exec(args ...any) (int64, error) {
	return s.ExecContext(context.Background(), args...)
}

// Close releases the statement handle. The parse stays in the engine's
// shared cache, so Close is cheap and re-preparing is free.
func (s *Stmt) Close() error { return nil }

// QueryContext parses, plans and starts one SELECT statement, returning a
// streaming cursor over its result. Placeholders (?, $n, :name — the
// latter bound with sql.Named) take their values from args. Cancelling ctx
// aborts the execution at its next progress boundary: a scan mid-file
// stops within a few hundred rows, and a session waiting on a table lock
// gives up immediately.
func (db *DB) QueryContext(ctx context.Context, query string, args ...any) (*Rows, error) {
	pos, named, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	p, err := db.eng.PrepareStmt(query)
	if err != nil {
		return nil, err
	}
	return db.queryPrepared(ctx, p, pos, named)
}

// queryPrepared plans, opens and wraps an execution into a Rows cursor.
// When ctx carries a query profile (WithProfile, or the server's
// per-query tracing), planning and binding attribute themselves inside
// Plan; the execute phase opens here and closes with the cursor.
func (db *DB) queryPrepared(ctx context.Context, p *core.Prepared, pos []datum.Datum, named map[string]datum.Datum) (*Rows, error) {
	prof := qtrace.FromContext(ctx)
	prof.SetSQL(p.Text())
	op, cols, err := p.Plan(ctx, pos, named)
	if err != nil {
		if prof != nil {
			prof.SetError(err.Error())
			prof.Finish()
		}
		return nil, err
	}
	endExec := prof.Enter(qtrace.PhaseExecute)
	if err := op.Open(); err != nil {
		op.Close() // release any partially acquired resources
		endExec()
		if prof != nil {
			prof.SetError(err.Error())
			prof.Finish()
		}
		return nil, err
	}
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = Column{Name: c.Name, Type: c.Type}
	}
	r := &Rows{op: op, cols: out}
	if prof != nil {
		r.prof, r.endExec = prof, endExec
	}
	return r, nil
}

// ExecContext runs any supported statement with parameters and returns the
// number of rows inserted (INSERT) or returned (SELECT).
func (db *DB) ExecContext(ctx context.Context, query string, args ...any) (int64, error) {
	pos, named, err := bindArgs(args)
	if err != nil {
		return 0, err
	}
	_, n, err := db.eng.ExecContext(ctx, query, pos, named)
	return n, err
}
