// Package jsonl is the JSON-Lines format adapter: in-situ SQL over files
// with one JSON object per line (ndjson). Declared columns bind to
// top-level object fields by name; nested values are skipped over, absent
// fields read as NULL.
//
// The adapter is the proof that the engine's raw-format source API is
// open. All it contains is what is JSON about JSON-Lines: a field decoder
// (the selective object walk, value conversion, and a positional map over
// field-value offsets — the paper's §4.2 idea transplanted to a
// self-describing format: once a query has located "price" in row k, the
// next query jumps straight to the value instead of re-walking the
// object) and a row encoder for INSERT. The scan itself — partitioning,
// caching, statistics, cancellation, LIMIT budgets, retries, append
// rollback — is format.LineScan, the same frame the CSV engine runs on.
package jsonl

import (
	"context"
	"fmt"
	"strings"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/schema"
)

// Source is the per-table adapter state: the shared adaptive structures
// plus the key→ordinal binding.
type Source struct {
	*format.State
	colIdx map[string]int // lower-case field name -> column ordinal
}

// driver registers JSON-Lines with the format registry.
type driver struct{}

func init() { format.Register("jsonl", driver{}) }

// Open implements format.Driver. The load-first comparator has no JSON
// loader.
func (driver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	if env.LoadFirst() {
		return nil, fmt.Errorf("jsonl: table %s: JSON-Lines tables cannot be bulk-loaded; query them in-situ instead", tbl.Name)
	}
	s := &Source{
		State:  format.NewState(tbl, env),
		colIdx: make(map[string]int, tbl.NumColumns()),
	}
	for i, c := range tbl.Columns {
		s.colIdx[strings.ToLower(c.Name)] = i
	}
	return s, nil
}

// OpenScan implements format.Source through the shared access-method
// decision: read-only cache scans under shared holds when the cache
// covers, a partitioned pass on a cold table, the sequential
// selective-parse pass otherwise.
func (s *Source) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.Operator, error) {
	return s.OpenLineScan(ctx, cols, conjuncts, func() format.LineDecoder {
		return &decoder{colIdx: s.colIdx}
	}), nil
}

// Close implements format.Source. Scans open the file themselves, so the
// source holds nothing to release.
func (s *Source) Close() error { return nil }
