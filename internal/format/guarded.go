package format

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// GuardedScan is the leaf operator every raw format shares. It defers the
// access-method decision to Open, where it holds the table lock:
//
//   - The shared callback runs under a shared hold first (when set): if it
//     can serve the query read-only — typically a fully covering binary
//     cache — any number of such scans proceed in parallel.
//   - Otherwise the exclusive callback decides the recording pass
//     (partitioned, sequential, or a cache scan discovered only under the
//     exclusive hold); returning downgrade=true converts the hold to
//     shared before the scan runs.
//
// Exclusive acquisition is what makes cold tables single-flight: N
// sessions arriving at an untouched file queue here, exactly one pays the
// first parse, and the rest re-decide afterwards (and typically downgrade
// to shared cache scans). Lock waits abort when ctx is cancelled, and the
// scan itself re-checks ctx at batch (and every-few-rows) boundaries.
type GuardedScan struct {
	ctx       context.Context
	lk        *TableLock
	cols      []exec.Col
	shared    func() (exec.Operator, error)
	exclusive func() (exec.Operator, bool, error)
	budget    int64 // LIMIT pushdown; -1 = none

	// What a shared hold serves (default: the binary cache): the profile
	// phase and the span details with and without a downgrade.
	sharedPhase                   qtrace.Phase
	sharedDetail, downgradeDetail string

	retries    int           // additional cold attempts after a retryable fault
	backoff    time.Duration // ctx-aware pause between attempts
	invalidate func()        // drops the table's adaptive state (call holding Lk exclusive)
	ctrs       *Counters     // where consumed retries count
	onRecorded func()        // fires in Close (lock released) after a recording pass ran

	inner          exec.Operator
	unlock         func()
	attempt        int  // retries consumed so far
	emitted        bool // a batch has left this operator
	recorded       bool // a recording (non-downgraded exclusive) pass opened
	holdsExclusive bool

	// Profiling (prof is nil unless the query context carries a qtrace
	// profile): lock waits, the access-method decision, retries, and inner
	// pull time attributed by access method (raw-scan vs cache-scan).
	prof  *qtrace.Profile
	span  *qtrace.Span
	phase qtrace.Phase // attribution for inner pull time, set by the decision
}

// NewGuardedScan builds the deferred-decision leaf. shared may be nil when
// a read-only fast path can never apply (no cache, or a budgeted cache
// whose reads churn shared LRU state); it runs under a shared hold and
// returns (nil, nil) to fall through to the exclusive path. exclusive runs
// under the exclusive hold and must return the access method; its second
// result requests a downgrade to a shared hold for read-only scans.
func NewGuardedScan(ctx context.Context, lk *TableLock, cols []exec.Col,
	shared func() (exec.Operator, error),
	exclusive func() (exec.Operator, bool, error)) *GuardedScan {
	if ctx == nil {
		ctx = context.Background()
	}
	return &GuardedScan{ctx: ctx, lk: lk, cols: cols, shared: shared, exclusive: exclusive,
		budget: -1, prof: qtrace.FromContext(ctx), sharedPhase: qtrace.PhaseCacheScan,
		sharedDetail: "access=cache shared", downgradeDetail: "access=cache downgraded"}
}

// SetSharedAccess names the access method that scans under a shared hold
// (the shared callback's, or the exclusive one's after a downgrade) for
// the profile and EXPLAIN ANALYZE. The default is the binary cache.
func (g *GuardedScan) SetSharedAccess(ph qtrace.Phase, name string) {
	g.sharedPhase = ph
	g.sharedDetail, g.downgradeDetail = "access="+name+" shared", "access="+name+" downgraded"
}

// SetTraceSpan implements qtrace.SpanSetter: the planner's span wrapper
// hands the scan its span so the access-method decision (only known at
// Open time) annotates the plan tree.
func (g *GuardedScan) SetTraceSpan(sp *qtrace.Span) { g.span = sp }

// lockTimed acquires through fn, attributing the wait when profiling.
func (g *GuardedScan) lockTimed(fn func(context.Context) error) error {
	if g.prof == nil {
		return fn(g.ctx)
	}
	done := g.prof.Enter(qtrace.PhaseLockWait)
	err := fn(g.ctx)
	done()
	return err
}

// setMode records the access-method decision: the phase pull time
// attributes to, and the span annotation for EXPLAIN ANALYZE.
func (g *GuardedScan) setMode(ph qtrace.Phase, detail string) {
	if g.prof == nil {
		return
	}
	g.phase = ph
	g.span.SetDetail(detail)
}

// SetRowBudget implements exec.RowBudgeter; the budget is forwarded to
// whichever access method Open selects.
func (g *GuardedScan) SetRowBudget(n int64) { g.budget = n }

// SetRetry arms the fault-recovery loop: after a retryable raw-file
// fault (Retryable) under the exclusive hold, the scan invalidates the
// table's adaptive state, backs off, and rebuilds cold — up to retries
// times. Mid-scan recovery applies only before the first row leaves the
// operator; emitted results cannot be retracted, so later faults
// surface as errors (typed, with the state still invalidated for the
// next query). Each consumed retry counts qtrace.CtrRetries into ctrs
// and the query profile.
func (g *GuardedScan) SetRetry(retries int, backoff time.Duration, invalidate func(), ctrs *Counters) {
	g.retries, g.backoff, g.invalidate, g.ctrs = retries, backoff, invalidate, ctrs
}

// OnRecorded installs a hook fired from Close — after the table lock is
// released — when a recording pass (an exclusive, non-downgraded access
// method) ran at any point of the scan. The sidecar checkpointer hangs
// off this: only scans that may have mutated the adaptive structures
// schedule a persist.
func (g *GuardedScan) OnRecorded(fn func()) { g.onRecorded = fn }

// Columns implements exec.Operator.
func (g *GuardedScan) Columns() []exec.Col { return g.cols }

// Open acquires the table, decides the access method and opens it.
func (g *GuardedScan) Open() error {
	// A query cancelled before it ran must not touch the file at all — not
	// the refresh's fingerprint reads, not a tuple (an uncontended lock
	// acquisition would not notice the context).
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if g.shared != nil {
		if err := g.lockTimed(g.lk.RLock); err != nil {
			return err
		}
		op, err := g.shared()
		if err != nil {
			g.lk.RUnlock()
			return err
		}
		if op != nil {
			if g.budget >= 0 {
				op.(exec.RowBudgeter).SetRowBudget(g.budget)
			}
			if err := op.Open(); err != nil {
				op.Close()
				g.lk.RUnlock()
				return err
			}
			g.inner = op
			g.unlock = g.lk.RUnlock
			g.setMode(g.sharedPhase, g.sharedDetail)
			return nil
		}
		g.lk.RUnlock()
	}
	if err := g.lockTimed(g.lk.Lock); err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok && g.unlock != nil {
			g.unlock()
			g.unlock = nil
		}
	}()
	if err := g.openExclusiveLocked(); err != nil {
		return err
	}
	ok = true
	return nil
}

// openExclusiveLocked decides and opens the access method under the
// exclusive hold (already acquired), retrying retryable faults within
// the budget. It keeps g.unlock pointing at the releaser matching the
// current hold (Unlock, or RUnlock after a downgrade) on every path; on
// error the hold is NOT released — the caller does, via g.unlock.
func (g *GuardedScan) openExclusiveLocked() error {
	g.unlock = g.lk.Unlock
	g.holdsExclusive = true
	for {
		inner, downgrade, err := g.exclusive()
		if err == nil {
			if downgrade {
				//nodblint:ignore locksafe the exclusive hold is acquired by the caller (Open, or retained across restart) and tracked via g.holdsExclusive
				g.lk.Downgrade()
				g.unlock = g.lk.RUnlock
				g.holdsExclusive = false
			}
			if g.budget >= 0 {
				inner.(exec.RowBudgeter).SetRowBudget(g.budget)
			}
			if err = inner.Open(); err == nil {
				g.inner = inner
				if !downgrade {
					g.recorded = true
					g.setMode(qtrace.PhaseRawScan, "access=raw recording")
				} else {
					g.setMode(g.sharedPhase, g.downgradeDetail)
				}
				return nil
			}
			inner.Close()
			if downgrade {
				// Already downgraded: a shared hold can neither invalidate
				// nor rebuild adaptive state, so surface the failure.
				return err
			}
		}
		if !g.takeRetry(err) {
			return g.wrapExhausted(err)
		}
		if g.invalidate != nil {
			g.invalidate()
		}
		if serr := g.backoffSleep(); serr != nil {
			return serr
		}
	}
}

// takeRetry decides whether err earns another cold attempt, consuming
// one from the budget when it does.
func (g *GuardedScan) takeRetry(err error) bool {
	if !Retryable(err) || g.ctx.Err() != nil || g.attempt >= g.retries {
		return false
	}
	g.attempt++
	g.ctrs.Count(g.prof, qtrace.CtrRetries, 1)
	return true
}

// wrapExhausted types errors that burned the whole retry budget: the
// caller sees ErrRetriesExhausted and the last underlying cause, both
// errors.Is-able.
func (g *GuardedScan) wrapExhausted(err error) error {
	if err != nil && g.attempt > 0 && g.attempt >= g.retries && Retryable(err) {
		return fmt.Errorf("%w (%d attempts): %w", ErrRetriesExhausted, g.attempt+1, err)
	}
	return err
}

// backoffSleep pauses between attempts, aborting when ctx dies first.
func (g *GuardedScan) backoffSleep() error {
	if g.backoff <= 0 {
		return g.ctx.Err()
	}
	t := time.NewTimer(g.backoff)
	defer t.Stop()
	select {
	case <-g.ctx.Done():
		return g.ctx.Err()
	case <-t.C:
		return nil
	}
}

// restart attempts mid-scan fault recovery: tear the inner scan down,
// invalidate adaptive state, back off, and rebuild cold. Recovery is
// only sound before any row left this operator (results already emitted
// cannot be retracted) and only while the exclusive hold is still in
// hand (a shared hold cannot invalidate). Either way, a fault that
// proves the file changed leaves the state invalidated so the NEXT
// query starts cold. Returns nil when the scan was rebuilt and the
// caller should pull again; the error to surface otherwise.
func (g *GuardedScan) restart(err error) error {
	invalidating := errors.Is(err, ErrFileChanged) || errors.Is(err, ErrCorruptAux)
	if g.emitted || !g.holdsExclusive {
		if invalidating && g.holdsExclusive && g.invalidate != nil {
			g.invalidate()
		}
		return err
	}
	if !g.takeRetry(err) {
		if invalidating && g.invalidate != nil {
			g.invalidate()
		}
		return g.wrapExhausted(err)
	}
	g.inner.Close()
	g.inner = nil
	if g.invalidate != nil {
		g.invalidate()
	}
	if serr := g.backoffSleep(); serr != nil {
		return serr
	}
	return g.openExclusiveLocked()
}

// NextBatch pulls the access method's next batch, re-checking
// cancellation at every batch boundary.
func (g *GuardedScan) NextBatch() (*exec.Batch, error) {
	if g.inner == nil {
		return nil, io.EOF
	}
	if err := g.ctx.Err(); err != nil {
		return nil, err
	}
	for {
		var start time.Time
		if g.prof != nil {
			start = time.Now()
		}
		b, err := g.inner.NextBatch()
		if g.prof != nil {
			g.prof.Add(g.phase, time.Since(start))
		}
		switch {
		case err == nil:
			g.emitted = true
			return b, nil
		case err == io.EOF:
			return nil, io.EOF
		}
		if rerr := g.restart(err); rerr != nil {
			return nil, rerr
		}
	}
}

// Close tears the inner scan down and releases the table.
func (g *GuardedScan) Close() error {
	var err error
	if g.inner != nil {
		err = g.inner.Close()
		g.inner = nil
	}
	if g.unlock != nil {
		g.unlock()
		g.unlock = nil
	}
	if g.recorded && g.onRecorded != nil {
		g.recorded = false
		g.onRecorded()
	}
	return err
}
