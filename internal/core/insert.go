package core

import (
	"context"
	"fmt"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/sqlparse"
)

// Exec runs any supported statement with a background context and no
// parameters; see ExecContext.
func (e *Engine) Exec(sql string) (*Result, int64, error) {
	return e.ExecContext(context.Background(), sql, nil, nil)
}

// ExecContext runs any supported statement. SELECTs return their result;
// INSERTs append to the raw file and return a Result with no columns whose
// Rows length is 0 (use the returned count instead).
//
// INSERT is the paper's "internal update" (§4.5): new tuples are appended
// to the raw data file itself — the file stays the single source of truth
// — and the auxiliary structures (positional map, cache, statistics row
// count) simply extend on the next query, exactly like an external append.
// The append holds the table's lock exclusively, so it never interleaves
// with a scan of the same table.
func (e *Engine) ExecContext(ctx context.Context, sql string, params []datum.Datum, named map[string]datum.Datum) (*Result, int64, error) {
	p, err := e.PrepareStmt(sql)
	if err != nil {
		return nil, 0, err
	}
	return e.ExecPrepared(ctx, p, params, named)
}

// ExecPrepared runs a prepared statement with the given bindings.
func (e *Engine) ExecPrepared(ctx context.Context, p *Prepared, params []datum.Datum, named map[string]datum.Datum) (*Result, int64, error) {
	if p.sel != nil {
		op, cols, err := p.Plan(ctx, params, named)
		if err != nil {
			return nil, 0, err
		}
		rows, err := exec.Drain(op)
		if err != nil {
			return nil, 0, err
		}
		return &Result{Cols: cols, Rows: rows}, int64(len(rows)), nil
	}
	if err := checkBindings(p, params, named); err != nil {
		return nil, 0, err
	}
	n, err := e.execInsert(ctx, p.ins, params, named)
	return &Result{}, n, err
}

// execInsert validates and appends rows to the table's raw CSV file.
func (e *Engine) execInsert(ctx context.Context, ins *sqlparse.Insert, params []datum.Datum, named map[string]datum.Datum) (int64, error) {
	tbl, ok := e.cat.Lookup(ins.Table)
	if !ok {
		return 0, fmt.Errorf("core: table %q does not exist", ins.Table)
	}

	// Evaluate literal rows and convert to the column types.
	converted := make([][]datum.Datum, 0, len(ins.Rows))
	for ri, row := range ins.Rows {
		if len(row) != tbl.NumColumns() {
			return 0, fmt.Errorf("core: INSERT row %d has %d values, table %s has %d columns",
				ri+1, len(row), tbl.Name, tbl.NumColumns())
		}
		out := make([]datum.Datum, len(row))
		for ci, node := range row {
			v, err := evalInsertValue(node, params, named)
			if err != nil {
				return 0, fmt.Errorf("core: INSERT row %d column %s: %w", ri+1, tbl.Columns[ci].Name, err)
			}
			cv, err := coerceTo(v, tbl.Columns[ci].Type)
			if err != nil {
				return 0, fmt.Errorf("core: INSERT row %d column %s: %w", ri+1, tbl.Columns[ci].Name, err)
			}
			out[ci] = cv
		}
		converted = append(converted, out)
	}

	// Appending is a format capability: the source implements
	// format.Appender when its raw file supports internal updates (CSV
	// does; binary formats with self-describing headers and the load-first
	// heap do not).
	src, err := e.source(tbl)
	if err != nil {
		return 0, err
	}
	ap, ok := src.(format.Appender)
	if !ok {
		return 0, fmt.Errorf("core: INSERT into %s table %s is not supported", tbl.Format, tbl.Name)
	}
	if err := ap.Append(ctx, converted); err != nil {
		return 0, err
	}
	return int64(len(converted)), nil
}

// evalInsertValue evaluates a literal value node: plain literals, date
// literals, parameter placeholders, and unary minus. Column references and
// other expressions are rejected.
func evalInsertValue(node sqlparse.Node, params []datum.Datum, named map[string]datum.Datum) (datum.Datum, error) {
	switch n := node.(type) {
	case *sqlparse.IntLit:
		return datum.NewInt(n.V), nil
	case *sqlparse.FloatLit:
		return datum.NewFloat(n.V), nil
	case *sqlparse.StringLit:
		if n.V == "" {
			return datum.NewNull(datum.Unknown), nil
		}
		return datum.NewText(n.V), nil
	case *sqlparse.DateLit:
		return datum.DateFromString(n.V)
	case *sqlparse.Placeholder:
		if n.Name != "" {
			d, ok := named[n.Name]
			if !ok {
				return datum.Datum{}, fmt.Errorf("no binding for parameter :%s", n.Name)
			}
			return d, nil
		}
		if n.Ordinal < 1 || n.Ordinal > len(params) {
			return datum.Datum{}, fmt.Errorf("no binding for parameter $%d (have %d)", n.Ordinal, len(params))
		}
		return params[n.Ordinal-1], nil
	case *sqlparse.Unary:
		if n.Op != "-" {
			return datum.Datum{}, fmt.Errorf("INSERT values must be literals")
		}
		v, err := evalInsertValue(n.E, params, named)
		if err != nil {
			return datum.Datum{}, err
		}
		neg := &expr.Neg{E: &expr.Const{D: v}}
		return neg.Eval(nil)
	default:
		return datum.Datum{}, fmt.Errorf("INSERT values must be literals")
	}
}

// coerceTo converts a literal to the column type where the conversion is
// lossless and conventional.
func coerceTo(v datum.Datum, t datum.Type) (datum.Datum, error) {
	if v.Null() {
		return datum.NewNull(t), nil
	}
	if v.T == t {
		return v, nil
	}
	switch {
	case t == datum.Float && v.T == datum.Int:
		return datum.NewFloat(v.Float()), nil
	case t == datum.Int && v.T == datum.Float && v.Float() == float64(int64(v.Float())):
		return datum.NewInt(int64(v.Float())), nil
	case t == datum.Text:
		return datum.NewText(v.Format()), nil
	case t == datum.Date && v.T == datum.Text:
		return datum.DateFromString(v.Text())
	case t == datum.Bool && v.T == datum.Int:
		return datum.NewBool(v.Int() != 0), nil
	}
	return datum.Datum{}, fmt.Errorf("cannot store %v value as %v", v.T, t)
}
