// Package robust is the fault-tolerance layer of the experiment
// pipeline: a small error taxonomy shared by the library packages, panic
// containment helpers, a singleflight (Flight) and a cancellation-checked
// batch pool (Each), retry with capped exponential backoff, an NDJSON
// checkpoint log for resumable suite runs, and a deterministic fault
// injector (armed via the BANDWALL_FAULTS environment variable or test
// hooks) that proves the recovery paths actually fire.
//
// The taxonomy partitions failures by recovery strategy:
//
//   - Transient failures (iteration did not converge, injected transient
//     faults) are worth retrying, possibly after degrading to a slower
//     but sturdier algorithm.
//   - Permanent failures (domain violations, corrupt traces, contained
//     panics) fail the experiment but must never take down the suite.
//   - Cancellation (Ctrl-C, per-experiment timeouts) stops work promptly
//     and is reported distinctly — a canceled experiment is not a broken
//     one.
//
// Library packages wrap their sentinel errors over this package's ones
// (e.g. numeric.ErrNoConverge wraps ErrNoConvergence), so Classify works
// across package boundaries with plain errors.Is machinery.
package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Taxonomy sentinels. Library errors wrap these so the runner can
// classify failures without importing every producing package.
var (
	// ErrDomain marks inputs outside a model or solver's domain
	// (non-positive areas, unreachable budgets, empty traces, ranks out
	// of range). Permanent: retrying the same inputs cannot help.
	ErrDomain = errors.New("robust: input outside model domain")
	// ErrNoConvergence marks an iterative method that exhausted its
	// budget. Transient: a retry — typically after degradation to a
	// sturdier method — may succeed.
	ErrNoConvergence = errors.New("robust: iteration did not converge")
	// ErrCorruptTrace marks undecodable or inconsistent trace data.
	// Permanent.
	ErrCorruptTrace = errors.New("robust: corrupt trace")
	// ErrCanceled marks work stopped by context cancellation or timeout.
	ErrCanceled = errors.New("robust: canceled")
)

// Class is an error's recovery classification.
type Class int

const (
	// Permanent failures are reported and not retried.
	Permanent Class = iota
	// Transient failures are retried with backoff.
	Transient
	// Canceled failures abort the remaining work without being counted
	// as experiment failures.
	Canceled
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Canceled:
		return "canceled"
	default:
		return "permanent"
	}
}

// transientError marks a wrapped error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// MarkTransient wraps err so Classify reports it Transient. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Classify maps an error onto the taxonomy. Cancellation (ErrCanceled,
// context.Canceled, context.DeadlineExceeded) wins over everything;
// explicit transient marks and ErrNoConvergence are Transient; anything
// else — including contained panics — is Permanent. A nil error
// classifies as Permanent; callers should not classify success.
func Classify(err error) Class {
	if errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) && t.Transient() {
		return Transient
	}
	if errors.Is(err, ErrNoConvergence) {
		return Transient
	}
	return Permanent
}

// Err returns nil while ctx is live and a taxonomy-classified
// cancellation error once it is done. It is the standard check at batch
// boundaries of long loops:
//
//	if err := robust.Err(ctx); err != nil { return nil, err }
func Err(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Each runs fn(i) for every i in [0, n) on a bounded pool and joins the
// errors in index order. workers ≤ 0 means GOMAXPROCS; the pool never
// exceeds n goroutines, and n = 0 starts none. Indices are handed out in
// chunks of max(n/(4·workers), 1): batch items that resolve from a memo in
// well under a microsecond would otherwise spend more on the hand-off than
// on the work. A chunk that starts after ctx is done runs nothing and
// reports Err(ctx) once, at its first index. Each does not recover
// panics; fn contains its own.
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	chunk := max(n/(4*workers), 1)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				if err := Err(ctx); err != nil {
					errs[start] = err
					continue
				}
				for i := start; i < min(start+chunk, n); i++ {
					errs[i] = fn(i)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// PanicError is a contained panic: the recovered value plus the stack at
// the panic site. It classifies as Permanent.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Unwrap exposes a panic value that already was an error, so errors.Is
// sees through containment.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Recover converts an in-flight panic into a *PanicError stored in
// *errp, bumping the recovered-panic counter. Use as
//
//	defer robust.Recover(&err)
//
// in functions with a named error return. Without an in-flight panic it
// leaves *errp untouched.
func Recover(errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{Value: v, Stack: debug.Stack()}
		counterRecoveredPanics().Inc()
	}
}

// Safe runs fn, converting a panic into a returned *PanicError.
func Safe(fn func() error) (err error) {
	defer Recover(&err)
	return fn()
}
