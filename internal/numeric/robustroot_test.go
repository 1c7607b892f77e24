package numeric

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/robust"
)

func TestRobustRootPlain(t *testing.T) {
	root, err := RobustRoot(context.Background(), func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want √2", root)
	}
}

// TestRobustRootBracketExpansion: [0,1] does not bracket x=10, so the
// first Brent attempt fails with ErrNoBracket; the ladder's geometric
// expansion must find the sign change and recover.
func TestRobustRootBracketExpansion(t *testing.T) {
	f := func(x float64) float64 { return x - 10 }
	if _, err := Brent(f, 0, 1, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Fatalf("precondition: Brent on [0,1] = %v, want ErrNoBracket", err)
	}
	root, err := RobustRoot(context.Background(), f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-10) > 1e-9 {
		t.Errorf("root = %v, want 10", root)
	}
}

// TestRobustRootDegradesToBisect injects a transient non-convergence at
// the numeric.root point and asserts the ladder falls through to
// bisection rather than failing.
func TestRobustRootDegradesToBisect(t *testing.T) {
	plan, err := robust.ParsePlan("numeric.root=noconverge")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()
	root, err := RobustRoot(context.Background(), func(x float64) float64 { return x - 0.25 }, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("ladder did not absorb the transient fault: %v", err)
	}
	if math.Abs(root-0.25) > 1e-9 {
		t.Errorf("root = %v, want 0.25", root)
	}
}

// TestRobustRootCancellation: a dead context aborts every rung — the
// ladder must not mask cancellation as a numeric failure.
func TestRobustRootCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RobustRoot(ctx, func(x float64) float64 { return x - 0.5 }, 0, 1, 1e-12)
	if err == nil || robust.Classify(err) != robust.Canceled {
		t.Errorf("RobustRoot on canceled ctx = %v, want Canceled class", err)
	}
}

// TestNoConvergeClassifiesTransient pins the taxonomy link: the solver's
// non-convergence sentinel must retry (Transient), its bracket failure
// must not (Permanent domain error).
func TestNoConvergeClassifiesTransient(t *testing.T) {
	if robust.Classify(ErrNoConverge) != robust.Transient {
		t.Errorf("ErrNoConverge class = %v, want Transient", robust.Classify(ErrNoConverge))
	}
	if !errors.Is(ErrNoConverge, robust.ErrNoConvergence) {
		t.Error("ErrNoConverge does not wrap robust.ErrNoConvergence")
	}
	if robust.Classify(ErrNoBracket) != robust.Permanent {
		t.Errorf("ErrNoBracket class = %v, want Permanent", robust.Classify(ErrNoBracket))
	}
	if !errors.Is(ErrNoBracket, robust.ErrDomain) {
		t.Error("ErrNoBracket does not wrap robust.ErrDomain")
	}
}
