package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"projpush/internal/relation"
)

// The engine reports every abnormal termination through one of five
// sentinel errors, so harnesses can classify outcomes with errors.Is
// without knowing which executor or kernel produced them. classifyErr is
// the single translation point from the relation layer's errors: every
// executor leaves through governor.finish, which calls it.

// sentinelError is a sentinel that additionally aliases a standard
// library error: errors.Is(err, ErrTimeout) and
// errors.Is(err, context.DeadlineExceeded) both hold for an engine
// timeout, so engine-aware and context-aware callers agree.
type sentinelError struct {
	msg   string
	alias error
}

func (e *sentinelError) Error() string { return e.msg }

func (e *sentinelError) Is(target error) bool {
	return e.alias != nil && target == e.alias
}

// ErrTimeout is returned when a run exceeds Options.Timeout. It matches
// context.DeadlineExceeded under errors.Is.
var ErrTimeout error = &sentinelError{
	msg:   "engine: execution timed out",
	alias: context.DeadlineExceeded,
}

// ErrCanceled is returned when the context passed to ExecContext (or its
// siblings) is canceled mid-run. It matches context.Canceled under
// errors.Is.
var ErrCanceled error = &sentinelError{
	msg:   "engine: execution canceled",
	alias: context.Canceled,
}

// ErrRowLimit is returned when an intermediate result exceeds
// Options.MaxRows.
var ErrRowLimit = errors.New("engine: intermediate result exceeds row cap")

// ErrMemLimit is returned when a run's materialized bytes exceed
// Options.MaxBytes.
var ErrMemLimit = errors.New("engine: execution exceeds memory budget")

// ErrWorkLimit is returned when a run spends the step budget its
// constructor was given (NewWCOJ's steps) before it finishes: the budget
// is what a cheaper plan is bounded by, so the run stops and degrades.
var ErrWorkLimit = errors.New("engine: run exceeds its step budget")

// ErrInternal is returned when an executor panics mid-run: the panic is
// recovered at the run boundary (relation.PanicError) and surfaces here
// instead of crashing the process. The wrapped error carries the
// panicking goroutine's stack.
var ErrInternal = errors.New("engine: internal execution fault")

// ErrOverWidth is returned when width-aware admission control rejects a
// query before execution: its predicted intermediate arity (plan width)
// or AGM output bound exceeds the configured threshold. The paper's
// Theorems 1–2 make this a static predictor — treewidth+1 bounds the
// achievable arity — so rejection costs plan construction only, never a
// materialized intermediate. Terminal: retrying the same query cannot
// change its width.
var ErrOverWidth = errors.New("engine: query exceeds admission width threshold")

// ErrOverloaded is returned when a request is shed by a concurrency
// limiter: every execution slot is busy and the bounded wait queue is
// full (or the queue wait expired). Retryable: the same query is
// admissible once load subsides.
var ErrOverloaded = errors.New("engine: request shed under load")

// classifyErr converts a relation-layer failure into the engine's
// sentinel errors. It is the shared error path of every executor; errors
// it does not recognize pass through unchanged.
func classifyErr(err error, elapsed time.Duration) error {
	if err == nil {
		return nil
	}
	var pe *relation.PanicError
	switch {
	case errors.Is(err, relation.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w after %v: %v", ErrTimeout, elapsed, err)
	case errors.Is(err, relation.ErrCanceled):
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	case errors.Is(err, relation.ErrRowLimit):
		return fmt.Errorf("%w: %v", ErrRowLimit, err)
	case errors.Is(err, relation.ErrMemBudget):
		return fmt.Errorf("%w: %v", ErrMemLimit, err)
	case errors.As(err, &pe):
		return fmt.Errorf("%w: %v", ErrInternal, err)
	}
	return err
}
