package numeric

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectFindsSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := BisectCtx(context.Background(), f, 0, 2, 1e-10)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-9) {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if root, err := BisectCtx(context.Background(), f, 1, 2, 0); err != nil || root != 1 {
		t.Errorf("left endpoint root: got %v, %v", root, err)
	}
	if root, err := BisectCtx(context.Background(), f, 0, 1, 0); err != nil || root != 1 {
		t.Errorf("right endpoint root: got %v, %v", root, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := BisectCtx(context.Background(), f, -1, 1, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBrentFindsSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	root, err := Brent(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if !AlmostEqual(root, 0.7390851332151607, 1e-9) {
		t.Errorf("root = %v, want dottie number", root)
	}
}

func TestBrentHardFunction(t *testing.T) {
	// Steep near the root: x^9, root at 0, bracketed asymmetrically.
	f := func(x float64) float64 { return math.Pow(x, 9) }
	root, err := Brent(f, -1, 4, 1e-10)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(root) > 1e-4 {
		t.Errorf("root = %v, want ~0", root)
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if root, err := Brent(f, 0, 1, 0); err != nil || root != 0 {
		t.Errorf("got %v, %v", root, err)
	}
	if root, err := Brent(f, -1, 0, 0); err != nil || root != 0 {
		t.Errorf("got %v, %v", root, err)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -3, 3, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBrentNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 { return math.Sqrt(x) - 1 } // NaN for x<0
	if _, err := Brent(f, -1, 4, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket on NaN endpoint, got %v", err)
	}
}

func TestBrentAgainstBisect(t *testing.T) {
	// Property: Brent and Bisect agree on a family of monotone functions.
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
	}{
		{"cubic", func(x float64) float64 { return x*x*x - 7 }, 0, 10},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 10},
		{"log", func(x float64) float64 { return math.Log(x) - 1 }, 0.1, 100},
		{"powerlaw", func(x float64) float64 { return math.Pow(x, -0.5) - 0.25 }, 1, 1000},
	}
	for _, tc := range cases {
		rb, err1 := Brent(tc.f, tc.a, tc.b, 1e-12)
		ri, err2 := BisectCtx(context.Background(), tc.f, tc.a, tc.b, 1e-12)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errs %v %v", tc.name, err1, err2)
		}
		if !AlmostEqual(rb, ri, 1e-8) {
			t.Errorf("%s: Brent %v vs Bisect %v", tc.name, rb, ri)
		}
	}
}

func TestBrentQuickProperty(t *testing.T) {
	// Property: for random monotone linear functions ax+b with a>0 and a
	// bracketing interval, Brent recovers -b/a.
	prop := func(a8, b8 int8) bool {
		a := float64(a8%50) + 51 // in [51, 100] or so, always > 0
		b := float64(b8)
		root := -b / a
		f := func(x float64) float64 { return a*x + b }
		got, err := Brent(f, root-10, root+17, 1e-12)
		return err == nil && AlmostEqual(got, root, 1e-8)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBracketUp(t *testing.T) {
	f := func(x float64) float64 { return x - 1000 }
	lo, hi, err := BracketUp(f, 1, 2)
	if err != nil {
		t.Fatalf("BracketUp: %v", err)
	}
	if f(lo)*f(hi) > 0 {
		t.Errorf("[%v, %v] does not bracket", lo, hi)
	}
	if _, _, err := BracketUp(f, 2, 1); err == nil {
		t.Error("want error for inverted interval")
	}
	g := func(x float64) float64 { return 1.0 }
	if _, _, err := BracketUp(g, 1, 2); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket for sign-constant f, got %v", err)
	}
}
