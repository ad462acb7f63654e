package format

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"nodb/internal/iofault"
)

// The fault taxonomy. Every failure an adapter can hit on a raw file it
// does not own maps onto one of these sentinels, so callers — core, the
// public API, the database/sql driver — can dispatch with errors.Is
// instead of string matching. The engine-wide guarantee they encode:
// under any fault or concurrent mutation of a raw file, a query returns
// either correct results or an error wrapping one of these — never
// silently wrong rows.
var (
	// ErrFileChanged: the raw file was truncated, rewritten, or mutated
	// underneath adaptive state built from an earlier version. The state
	// (positional map, column cache, statistics) has been invalidated;
	// retrying the query re-scans cold.
	ErrFileChanged = errors.New("raw file changed underneath adaptive state")

	// ErrFileVanished: the raw file disappeared (unlinked or renamed away)
	// between registration and access.
	ErrFileVanished = errors.New("raw file vanished")

	// ErrCorruptAux: auxiliary state (positional map entry, cached column
	// chunk) disagreed with the bytes on disk in a way the scan could not
	// repair by re-tokenizing from the line start.
	ErrCorruptAux = errors.New("auxiliary scan state corrupt")

	// ErrRetriesExhausted: a scan hit retryable faults on every attempt
	// its retry budget allowed (Env.RetryBudget). Wraps the last
	// underlying cause.
	ErrRetriesExhausted = errors.New("scan retries exhausted")
)

// WrapFileErr attaches table context to a raw-file access error and
// types vanished files. It is the single choke point between os-level
// errors and the taxonomy: adapters call it at every open/stat seam.
func WrapFileErr(table string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("format: table %s: %w: %w", table, ErrFileVanished, err)
	}
	return fmt.Errorf("format: table %s: %w", table, err)
}

// Retryable reports whether a cold re-scan has any chance of curing err.
// Context cancellation and deadline expiry are the caller giving up —
// never retried. File-change/corrupt-aux faults retry (the retry
// invalidates state and rebuilds from the current file); transient I/O
// errors (injected or real *fs.PathError) retry; ErrFileVanished retries
// too, covering the unlink-then-replace window of an atomic rename.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, ErrRetriesExhausted):
		return false
	case errors.Is(err, ErrFileChanged), errors.Is(err, ErrFileVanished), errors.Is(err, ErrCorruptAux):
		return true
	case errors.Is(err, iofault.ErrInjected):
		return true
	}
	var pe *fs.PathError
	return errors.As(err, &pe)
}

// retryBackoff is the ctx-aware pause between scan retry attempts.
const retryBackoff = 5 * time.Millisecond

// RetryBudget resolves the Env retry knob to concrete values: retries is
// the number of additional cold attempts after the first failure (default
// 2, negative disables), backoff the ctx-aware sleep between attempts.
func (e *Env) RetryBudget() (retries int, backoff time.Duration) {
	retries = e.ScanRetries
	switch {
	case retries < 0:
		retries = 0
	case retries == 0:
		retries = 2
	}
	return retries, retryBackoff
}
