// Package a exercises the atomiccounter analyzer: mixed plain/atomic
// access (flagged), pure atomic access (clean), and counter flushes on
// and off the scan hot path.
package a

import (
	"sync/atomic"

	"nodb/internal/format"
	"nodb/internal/qtrace"
)

type table struct {
	rows    int64
	flushes int64
}

func (t *table) bump(n int64) {
	atomic.AddInt64(&t.rows, n)
}

func (t *table) snapshot() int64 {
	return atomic.LoadInt64(&t.rows)
}

// racyRead reads rows without the atomic it is written with.
func (t *table) racyRead() int64 {
	return t.rows // want `rows is accessed with sync/atomic elsewhere`
}

// racyWrite writes rows plainly.
func (t *table) racyWrite() {
	t.rows = 0 // want `rows is accessed with sync/atomic elsewhere`
}

// flushes is never touched atomically, so plain access is fine.
func (t *table) plainOnly() int64 {
	t.flushes++
	return t.flushes
}

type scan struct {
	prof   *qtrace.Profile
	shared *format.Counters
	c      qtrace.Counts
}

// NextBatch must not flush: counters are private until Close.
func (s *scan) NextBatch() (int, error) {
	s.c[qtrace.CtrTuplesParsed]++ // private counters on the hot path are the point
	s.shared.Flush(s.prof, &s.c)  // want `flush once at Close`
	return 0, nil
}

// Next must not load the shared counters either.
func (s *scan) Next() (int, error) {
	_ = s.shared.Load() // want `flush once at Close`
	return 0, nil
}

// Close is where the flush belongs.
func (s *scan) Close() error {
	s.shared.Flush(s.prof, &s.c)
	return nil
}

// Next on a plain iterator without shared counters is clean.
type lines struct{ n int }

func (l *lines) Next() (int, error) {
	l.n++
	return l.n, nil
}
