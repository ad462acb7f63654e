// Package a exercises the ctxloop analyzer: uncancellable scans are
// flagged, the tick idiom and select-on-Done pass, operators without a
// context are exempt.
package a

import "context"

type row []int

// badScan pulls rows with no cancellation check at all.
type badScan struct {
	ctx  context.Context
	rows []row
	i    int
}

func (s *badScan) Next() (row, error) { // want `Next on a context-carrying scan has no cancellation check`
	for { // want `unbounded loop on a context-carrying path has no cancellation check`
		r := s.read()
		if r != nil {
			return r, nil
		}
	}
}

func (s *badScan) read() row {
	if s.i >= len(s.rows) {
		return nil
	}
	r := s.rows[s.i]
	s.i++
	return r
}

// tickScan uses the established every-256-rows idiom: clean.
type tickScan struct {
	ctx  context.Context
	tick int
}

func (s *tickScan) Next() (row, error) {
	for {
		if s.tick++; s.tick&255 == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if r := s.read(); r != nil {
			return r, nil
		}
	}
}

func (s *tickScan) read() row { return nil }

// delegatingScan checks cancellation inside a same-package callee: clean.
type delegatingScan struct {
	ctx context.Context
}

func (s *delegatingScan) NextBatch() (row, error) {
	return s.pull()
}

func (s *delegatingScan) pull() (row, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}

// drain has ctx in scope and loops forever without observing it.
func drain(ctx context.Context, next func() (row, error)) error {
	for { // want `unbounded loop on a context-carrying path has no cancellation check`
		if _, err := next(); err != nil {
			return err
		}
	}
}

// drainSelect blocks on Done: clean.
func drainSelect(ctx context.Context, ch chan row) error {
	for {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// worker's literal inherits ctx lexically from the enclosing function.
func worker(ctx context.Context, next func() (row, error)) func() error {
	return func() error {
		for { // want `unbounded loop on a context-carrying path has no cancellation check`
			if _, err := next(); err != nil {
				return err
			}
		}
	}
}

// batcherScan forwards to the wrapped operator's NextBatch, which pulls
// back through the scan's checked path: clean (the wrapper shape).
type batcherScan struct {
	ctx     context.Context
	batcher interface{ NextBatch() (row, error) }
}

func (s *batcherScan) NextBatch() (row, error) {
	return s.batcher.NextBatch()
}

// boundedLoops iterate one batch: exempt even with ctx in scope.
func boundedLoops(ctx context.Context, batch []row) int {
	n := 0
	for i := 0; i < len(batch); i++ {
		n += use(batch[i])
	}
	for _, r := range batch {
		n += use(r)
	}
	return n
}

func use(r row) int { return len(r) }

// pureOperator has no context anywhere: cancellation is the leaf scan's
// job, so its drain loop is exempt.
type pureOperator struct {
	input func() (row, error)
}

func (p *pureOperator) Next() (row, error) {
	for {
		r, err := p.input()
		if err != nil {
			return nil, err
		}
		if len(r) > 0 {
			return r, nil
		}
	}
}

// indexOnly loops without calls cannot iterate rows: exempt.
func indexOnly(ctx context.Context, drained []bool) int {
	prefix := 0
	for prefix < len(drained) && drained[prefix] {
		prefix++
	}
	return prefix
}
