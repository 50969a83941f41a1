package core

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the estimator layer. Engine-level failures (truncation,
// corruption, transient I/O) keep their stream-layer sentinels; these two
// classify how a run *ended* when the caller's context fired, so CLIs and the
// future daemon can map outcomes without inspecting context internals:
//
//   - ErrDeadline: the run's deadline expired (context.DeadlineExceeded
//     somewhere below). The budget ran out — the input is fine.
//   - ErrAborted: the run was cancelled (context.Canceled) — a SIGINT, a
//     withdrawn request, a parent operation giving up.
//
// Both wrap the original context error chain, so errors.Is against
// context.DeadlineExceeded/context.Canceled keeps working too.
var (
	ErrDeadline = errors.New("core: deadline exceeded")
	ErrAborted  = errors.New("core: run aborted")
)

// WrapAbort brands an error that stems from context cancellation with the
// matching core sentinel, leaving every other error untouched. Callers that
// run core's estimators on their own executors use it so that every error
// they return is classified the same way.
func WrapAbort(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDeadline) || errors.Is(err, ErrAborted):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrAborted, err)
	default:
		return err
	}
}

// ctxDone reports whether err is a context-cancellation outcome (either
// flavor) — the condition under which the geometric search degrades to its
// best completed probe instead of failing.
func ctxDone(err error) bool {
	return err != nil &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
}
