// Package engine is the fault-tolerant execution substrate shared by the
// RQCODE catalogue runners (internal/core), the reactive-protection
// scheduler (internal/monitor) and the CLIs. It provides three building
// blocks:
//
//   - Attempt: run one operation with panic recovery, per-attempt timeouts,
//     and retry with exponential backoff up to a configurable attempt
//     count — a misbehaving check yields a verdict, never a crash.
//   - ForEach: a bounded worker pool over the indices [0, n) that reports
//     wall/busy time and worker utilisation; callers write row i of their
//     own result slices, so input order is kept without a copy.
//   - FaultInjector: a seeded, deterministic source of injected panics,
//     transient failures and slowdowns for robustness testing (the E7b
//     experiment).
//
// The package is deliberately generic — it knows nothing about
// requirements or check statuses — so internal/core can build its
// execution path on top of it without an import cycle.
//
// Recovered panics come in two kinds. A bug (a runtime error, an
// arbitrary panic value, an injected ErrInjectedPanic) is recovered with
// the goroutine stack that raised it. An expected failure — a panic value
// with an ExpectedPanic() method, such as the simulated hosts' transport
// sentinels (host.ErrUnreachable, host.ErrCanceled) — is recovered the
// same way but without the stack: capturing one costs far more than the
// failed probe itself, and a down host raises one per check. The marker
// is structural, so packages that raise expected failures need not
// import this one.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"veridevops/internal/telemetry"
)

// The retry backoff is fixed: the first retry waits initialBackoff, each
// later one twice the previous, capped at maxBackoff.
const (
	initialBackoff = time.Millisecond
	maxBackoff     = 100 * time.Millisecond
)

// Policy configures how Attempt runs one operation. The zero value means
// "one attempt, no timeout": exactly the semantics of calling the
// operation directly, plus panic recovery. Retries back off on the fixed
// schedule above (1ms, doubling, capped at 100ms).
type Policy struct {
	// MaxAttempts is the total number of tries per operation (first try
	// included). Values below 1 are treated as 1.
	MaxAttempts int
	// AttemptTimeout bounds one attempt's wall-clock time; 0 disables it.
	// A timed-out attempt counts as a retryable failure. The abandoned
	// attempt's goroutine is left to finish in the background (its result
	// is discarded), mirroring how real audit agents abandon stuck probes.
	// Operations run through AttemptCtx receive a context that is
	// cancelled at the deadline, so cooperative probes can notice the
	// abandonment and release their goroutine early instead of running to
	// completion.
	AttemptTimeout time.Duration
	// Sleep is the backoff sleeper, injectable for tests and for
	// virtual-time schedulers; nil means time.Sleep.
	Sleep func(time.Duration)
	// Span, when non-nil, parents one "attempt" child span per try,
	// tagged with its 1-based index and outcome: ok (final value),
	// transient (retryable value), panic, or timeout. The catalogue
	// runner wires each check's span here; a nil Span — telemetry
	// disabled — adds zero allocations to the attempt loop.
	Span *telemetry.Span
}

func (p Policy) normalized() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Sleep == nil {
		//lint:ignore clockuse seam default: this is the one place the real sleep is wired; tests inject a virtual Sleep
		p.Sleep = time.Sleep
	}
	return p
}

// Stats is the telemetry of one Attempt call.
type Stats struct {
	// Attempts is how many times the operation ran (>= 1).
	Attempts int
	// Retries is Attempts beyond the first that were actually taken.
	Retries int
	// Panics counts attempts that ended in a recovered panic.
	Panics int
	// Timeouts counts attempts abandoned at AttemptTimeout.
	Timeouts int
	// Duration is total wall time spent, backoffs included.
	Duration time.Duration
	// Err is the failure of the last attempt when no attempt produced a
	// value (recovered panic or timeout); nil otherwise.
	Err error
}

// PanicError wraps a recovered panic value.
type PanicError struct {
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack), or
	// nil when Value marks itself an expected failure (see expectedPanic):
	// the panic is counted, traced and retried like any other, only its
	// stack is not captured.
	Stack []byte
}

// expectedPanic is the structural marker of an anticipated panic value:
// runRecovered recovers it without capturing a stack.
type expectedPanic interface{ ExpectedPanic() }

func (e *PanicError) Error() string { return fmt.Sprintf("engine: recovered panic: %v", e.Value) }

// TimeoutError reports an attempt abandoned at its deadline.
type TimeoutError struct{ Timeout time.Duration }

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("engine: attempt abandoned after %v", e.Timeout)
}

// Attempt runs op under the policy. A panicking or timed-out attempt is
// retried while attempts remain; a returned value is retried
// only while retryable reports it transient (nil retryable means any value
// is final). When every attempt fails without producing a value, fallback
// maps the last error to the result (nil fallback returns the zero value).
// The final value of a retry-exhausted transient verdict is that verdict
// itself — it is a legitimate outcome, not an error.
func Attempt[R any](op func() R, retryable func(R) bool, fallback func(error) R, p Policy) (R, Stats) {
	return AttemptCtx(func(context.Context) R { return op() }, retryable, fallback, p)
}

// AttemptCtx is Attempt for context-aware operations: each attempt
// receives a context that is cancelled when the attempt is abandoned at
// AttemptTimeout (and when the attempt completes). Cooperative operations
// — host probes checking the context at probe boundaries — can use it to
// unwind early and release their goroutine instead of running to
// completion in the background. Without an AttemptTimeout the context is
// never cancelled mid-attempt.
func AttemptCtx[R any](op func(context.Context) R, retryable func(R) bool, fallback func(error) R, p Policy) (R, Stats) {
	p = p.normalized()
	start := time.Now()
	var st Stats
	var last R
	hasValue := false
	backoff := initialBackoff
	for {
		st.Attempts++
		sp := p.Span.Child("attempt").TagInt("n", st.Attempts)
		v, err := runProtected(op, p.AttemptTimeout)
		if err == nil {
			last, hasValue = v, true
			st.Err = nil
			if retryable == nil || !retryable(v) {
				sp.Tag("outcome", "ok").End()
				break
			}
			sp.Tag("outcome", "transient").End()
		} else {
			hasValue = false
			st.Err = err
			switch err.(type) {
			case *PanicError:
				st.Panics++
				sp.Tag("outcome", "panic").End()
			case *TimeoutError:
				st.Timeouts++
				sp.Tag("outcome", "timeout").End()
			default:
				sp.Tag("outcome", "error").End()
			}
		}
		if st.Attempts >= p.MaxAttempts {
			break
		}
		st.Retries++
		p.Sleep(backoff)
		backoff = min(2*backoff, maxBackoff)
	}
	st.Duration = time.Since(start)
	if hasValue {
		return last, st
	}
	var zero R
	if fallback != nil {
		return fallback(st.Err), st
	}
	return zero, st
}

// runProtected executes op once with panic recovery and an optional
// wall-clock deadline. With a deadline, op's context is cancelled both at
// the deadline (so an abandoned probe can unwind cooperatively) and after
// a completed attempt (releasing the timer).
func runProtected[R any](op func(context.Context) R, timeout time.Duration) (R, error) {
	if timeout <= 0 {
		return runRecovered(func() R { return op(context.Background()) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	type outcome struct {
		v   R
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := runRecovered(func() R { return op(ctx) })
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		var zero R
		return zero, &TimeoutError{Timeout: timeout}
	}
}

// runRecovered runs op once, turning a panic into a *PanicError that
// carries the stack unless the panic value is an expectedPanic.
func runRecovered[R any](op func() R) (v R, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r}
			if _, ok := r.(expectedPanic); !ok {
				pe.Stack = debug.Stack()
			}
			err = pe
		}
	}()
	return op(), nil
}
