package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Sentinel errors of the stream layer. Every error a stream source or the
// sharded pass engine produces wraps one of these (or ErrEndOfPass/ErrNoPass)
// with %w, so callers classify failures with errors.Is instead of string
// matching:
//
//   - ErrTruncated: the byte stream ended before the edges it promised — a
//     .bex file shorter than its header's count, a text pass that consumed
//     fewer bytes than the file held at open (a short read, a text truncated
//     after its copy was written), a fault-injected short read.
//   - ErrCorruptHeader: the container metadata itself is wrong (bad .bex
//     magic, implausible count, header/size disagreement). Unlike truncation
//     this is detected at open time and retrying cannot help.
//   - ErrCorruptBlock: a .bex v2 block's payload failed its checksum or did
//     not decode to the edge count its footer record declared. The container
//     geometry was fine at open; the damage is confined to (and reported
//     with) one block, detected deterministically the first time that block
//     is read. Retrying cannot help.
//   - ErrMalformed: the input is not an edge list the model accepts — a
//     text line with a bad token, a missing field, a negative vertex ID or
//     one above 2³¹ − 1 (the .bex limit), a line over 16 MiB, or an edge
//     handed to the .bex writer that its int32 records cannot hold. The
//     error names the line; retrying cannot help.
//   - ErrTransient: the failure is worth retrying — the read may succeed on
//     the next attempt (EIO from a flaky device, an injected fault from
//     internal/faultio). The engine's retry layer resumes or re-runs only
//     errors that wrap ErrTransient; everything else (parse errors,
//     corruption, cancellation) propagates immediately.
var (
	ErrTruncated     = errors.New("stream: truncated input")
	ErrCorruptHeader = errors.New("stream: corrupt header")
	ErrCorruptBlock  = errors.New("stream: corrupt block")
	ErrMalformed     = errors.New("stream: malformed input")
	ErrTransient     = errors.New("stream: transient I/O error")
)

// MarkTransient wraps err so IsTransient reports true, preserving the
// original chain for errors.Is/errors.As. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrTransient) {
		return err
	}
	return &transientError{err: err}
}

// transientError brands an error transient without flattening it to a string:
// both ErrTransient and the original chain remain visible to errors.Is.
type transientError struct {
	err error
}

func (t *transientError) Error() string { return ErrTransient.Error() + ": " + t.err.Error() }

func (t *transientError) Unwrap() []error { return []error{ErrTransient, t.err} }

// IsTransient reports whether err is worth retrying: it wraps ErrTransient.
// Cancellation is never transient — a cancelled scan must not be retried —
// and the check enforces that even if a fault layer mislabels one.
func IsTransient(err error) bool {
	if err == nil || !errors.Is(err, ErrTransient) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// RetryPolicy bounds how the physical-scan layer reacts to transient I/O
// errors: up to MaxAttempts extra attempts per failing operation, separated
// by exponential backoff (BaseDelay doubling per attempt, capped at
// MaxDelay, with up to 50% random jitter to avoid lockstep retries). The
// zero value disables retry entirely — robustness is opt-in at the library
// level; the CLIs enable DefaultRetryPolicy unless told otherwise.
//
// Retry never changes results: failed reads are resumed at the exact stream
// position they broke at (position-addressable sources), or the failing
// operation is re-run from a state-free point (Reset). Passes are replayable
// by construction — all in-pass randomness is keyed by (seed, passKey,
// instance, shard), never by attempt — so a retried scan is bit-identical to
// an undisturbed one.
type RetryPolicy struct {
	// MaxAttempts is the number of retries after the first failure; <= 0
	// disables retry.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles for each
	// subsequent retry. Zero means no sleep (tests).
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means uncapped.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy the CLIs (and callers that want the
// robust default) use: three attempts at 5ms/10ms/20ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
}

// Enabled reports whether the policy allows any retry.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// backoff returns the delay before retry attempt (0-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d > 0 {
		// Jitter desynchronizes concurrent retriers; it affects wall-clock
		// only, never results, so math/rand is fine here (no seeding contract).
		d += time.Duration(rand.Int64N(int64(d)/2 + 1))
	}
	return d
}

// sleep waits the policy's backoff for the given attempt, returning early
// with the context's error if it is cancelled meanwhile.
func (p RetryPolicy) sleep(ctx context.Context, attempt int) error {
	d := p.backoff(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// posErr wraps a context error with the scan position it interrupted, so a
// cancelled run reports how far it got: "cancelled at edge 8192/1000000".
// m < 0 means the stream length was not yet known (a counting pass).
func posErr(ctx context.Context, pos, m int) error {
	if m < 0 {
		return fmt.Errorf("stream: scan aborted at edge %d: %w", pos, context.Cause(ctx))
	}
	return fmt.Errorf("stream: scan aborted at edge %d/%d: %w", pos, m, context.Cause(ctx))
}
