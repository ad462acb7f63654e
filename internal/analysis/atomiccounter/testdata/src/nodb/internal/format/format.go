// Package format is a fixture stub of nodb/internal/format: just enough
// surface for the analyzers' test packages to typecheck against.
package format

import "nodb/internal/qtrace"

// Counters mirrors the real shared per-table counters.
type Counters [2]int64

// Flush publishes a scan's counters to the profile and the table.
func (tc *Counters) Flush(prof *qtrace.Profile, c *qtrace.Counts) {}

// Count records a decision-time counter.
func (tc *Counters) Count(prof *qtrace.Profile, ctr qtrace.Counter, n int64) {}

// Load reads the cumulative totals.
func (tc *Counters) Load() qtrace.Counts { return qtrace.Counts{} }
