package relation

import (
	"fmt"
	"runtime/debug"
)

// PanicError records a panic recovered at an executor's run boundary: the
// panic value and the stack of the panicking goroutine. The engine's
// executors convert a panic below them into this error instead of
// crashing the process, and classify it under the ErrInternal sentinel, so
// a single pathological cell can never take down a whole experiments batch.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("relation: worker panic: %v", e.Value)
}

// RecoverPanic converts an in-flight panic into a *PanicError stored at
// dst. Use directly as a deferred call at a run boundary:
//
//	defer relation.RecoverPanic(&err)
func RecoverPanic(dst *error) {
	if r := recover(); r != nil {
		*dst = &PanicError{Value: r, Stack: debug.Stack()}
	}
}
