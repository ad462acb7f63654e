package core

import (
	"fmt"
	"strings"
)

// Prewarm realizes the paper's §7 "Auto Tuning Tools" opportunity: given
// idle time and (optionally) workload knowledge, populate the adaptive
// structures before queries arrive instead of making the first user query
// pay for them. It runs one in-situ scan over the named columns (all
// columns when none are given), building the positional map, the binary
// cache and statistics exactly as a query would — because it literally is
// a query: SELECT count(c1, ...) over the table.
//
// Prewarming is never required for correctness. It does nothing in
// external-files mode, and in load-first mode only loads the table.
func (e *Engine) Prewarm(table string, columns ...string) error {
	tbl, ok := e.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("core: table %q does not exist", table)
	}
	// Opening the source is the whole warm-up of a load-first engine: it
	// is the load.
	if _, err := e.source(tbl); err != nil {
		return err
	}
	if !e.env.PosMap && !e.env.Cache {
		return nil // nothing to warm: the mode keeps no adaptive state
	}
	if len(columns) == 0 {
		columns = tbl.ColumnNames()
	}
	aggs := make([]string, len(columns))
	for i, c := range columns {
		if tbl.ColumnIndex(c) < 0 {
			return fmt.Errorf("core: table %s has no column %q", table, c)
		}
		aggs[i] = "count(" + c + ")"
	}
	// A COUNT per column touches every row of every requested column
	// without materializing results, which is precisely one adaptive
	// scan's worth of structure building.
	_, err := e.Query("SELECT " + strings.Join(aggs, ", ") + " FROM " + table)
	return err
}
