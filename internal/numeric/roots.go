// Package numeric provides the small numerical toolkit the bandwidth-wall
// model is built on: scalar root finding (bisection, Brent) and
// least-squares line fitting (including log-log fits for power laws).
//
// Everything here is deterministic and allocation-free on the hot paths so
// the scaling solver can be called inside tight parameter sweeps. BisectCtx
// and BrentCtx check for cancellation once per iteration; plain Brent runs
// uncancellable. RobustRoot layers a degradation ladder on top: Brent
// first, then automatic bracket expansion, then unconditional bisection.
package numeric

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/robust"
)

// taxonomyError is a sentinel with a clean message whose Unwrap links it
// into the robust error taxonomy, so errors.Is matches both the local
// sentinel and the taxonomy class.
type taxonomyError struct {
	msg   string
	under error
}

func (e *taxonomyError) Error() string { return e.msg }
func (e *taxonomyError) Unwrap() error { return e.under }

// ErrNoBracket is returned by root finders when the supplied interval does
// not bracket a sign change of the function. It classifies as a domain
// error (robust.ErrDomain).
var ErrNoBracket error = &taxonomyError{
	msg:   "numeric: interval does not bracket a root",
	under: robust.ErrDomain,
}

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without meeting the requested tolerance. It classifies as
// transient (robust.ErrNoConvergence): a retry after degradation to a
// sturdier method may succeed.
var ErrNoConverge error = &taxonomyError{
	msg:   "numeric: iteration did not converge",
	under: robust.ErrNoConvergence,
}

// DefaultTol is the convergence tolerance used when a caller passes tol <= 0.
const DefaultTol = 1e-12

// maxIter bounds every iterative solver in this package.
const maxIter = 200

// BisectCtx finds a root of f in [a, b] by bisection, checking for
// cancellation once per iteration. f(a) and f(b) must have opposite signs.
// It converges unconditionally but only linearly; prefer Brent for
// production use. tol <= 0 selects DefaultTol.
func BisectCtx(ctx context.Context, f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		observeIters(obsBisectIters, 0)
		return a, nil
	}
	if fb == 0 {
		observeIters(obsBisectIters, 0)
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || fa*fb > 0 {
		observeBracketFailure()
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < maxIter; i++ {
		if err := robust.Err(ctx); err != nil {
			observeIters(obsBisectIters, i)
			return 0, err
		}
		mid := 0.5 * (a + b)
		fm := f(mid)
		if fm == 0 || (b-a)/2 < tol {
			observeIters(obsBisectIters, i+1)
			return mid, nil
		}
		if fa*fm < 0 {
			b, fb = mid, fm
		} else {
			a, fa = mid, fm
		}
		_ = fb
	}
	observeIters(obsBisectIters, maxIter)
	return 0.5 * (a + b), ErrNoConverge
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs. tol <= 0 selects DefaultTol.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	return BrentCtx(context.Background(), f, a, b, tol)
}

// BrentCtx is Brent with cancellation checked once per iteration.
func BrentCtx(ctx context.Context, f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTol
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		observeIters(obsBrentIters, 0)
		return a, nil
	}
	if fb == 0 {
		observeIters(obsBrentIters, 0)
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || fa*fb > 0 {
		observeBracketFailure()
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// Ensure |f(b)| <= |f(a)| so b is the best estimate.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	mflag := true
	var d float64
	for i := 0; i < maxIter; i++ {
		if err := robust.Err(ctx); err != nil {
			observeIters(obsBrentIters, i)
			return 0, err
		}
		if fb == 0 || math.Abs(b-a) < tol {
			observeIters(obsBrentIters, i)
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant method.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < tol) ||
			(!mflag && math.Abs(c-d) < tol)
		if cond {
			s = 0.5 * (a + b)
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if fa*fs < 0 {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	observeIters(obsBrentIters, maxIter)
	return b, ErrNoConverge
}

// BracketUp expands [a, b] geometrically to the right until f changes sign
// or the budget of expansions is exhausted. It returns a bracketing
// interval suitable for Brent. The initial interval must satisfy a < b.
func BracketUp(f func(float64) float64, a, b float64) (lo, hi float64, err error) {
	if !(a < b) {
		return 0, 0, fmt.Errorf("numeric: invalid initial interval [%g, %g]", a, b)
	}
	fa := f(a)
	for i := 0; i < 64; i++ {
		fb := f(b)
		if fa == 0 || fb == 0 || fa*fb < 0 {
			return a, b, nil
		}
		a, fa = b, fb
		b *= 2
	}
	observeBracketFailure()
	return 0, 0, ErrNoBracket
}

// RobustRoot is the degradation ladder the fault-tolerant pipeline solves
// through: Brent first; on a bracket failure, automatic geometric bracket
// expansion (BracketUp) and one more Brent attempt; on non-convergence
// (including injected transient faults at the "numeric.root" point),
// unconditional bisection over the original interval. Cancellation aborts
// immediately at every rung. Each engaged fallback bumps the
// robust.degradations counter.
func RobustRoot(ctx context.Context, f func(float64) float64, a, b, tol float64) (float64, error) {
	root, err := func() (float64, error) {
		if ierr := robust.Hit(ctx, "numeric.root"); ierr != nil {
			return 0, ierr
		}
		return BrentCtx(ctx, f, a, b, tol)
	}()
	if err == nil {
		return root, nil
	}
	if robust.Classify(err) == robust.Canceled {
		return 0, err
	}
	if errors.Is(err, ErrNoBracket) {
		lo, hi, berr := BracketUp(f, a, b)
		if berr != nil {
			return 0, err // expansion could not help; report the original failure
		}
		robust.CountDegradation()
		return BrentCtx(ctx, f, lo, hi, tol)
	}
	if robust.Classify(err) == robust.Transient {
		robust.CountDegradation()
		return BisectCtx(ctx, f, a, b, tol)
	}
	return 0, err
}
