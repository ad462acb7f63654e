// Package qtrace is a fixture stub of nodb/internal/qtrace: just enough
// surface for the format stub to typecheck against.
package qtrace

// Profile mirrors the real per-query profile.
type Profile struct{}

// Counter mirrors the real counter identifiers.
type Counter uint8

// CtrTuplesParsed mirrors one table-scope counter.
const CtrTuplesParsed Counter = 0

// Counts mirrors the real private per-scan counters.
type Counts [2]int64
