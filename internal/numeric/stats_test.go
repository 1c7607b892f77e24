package numeric

import (
	"math"
	"testing"
)

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1e12, 1e12+1, 1e-9) {
		t.Error("relative comparison failed for large numbers")
	}
	if AlmostEqual(1e-3, 2e-3, 1e-6) {
		t.Error("absolute comparison failed for small numbers")
	}
	if !AlmostEqual(math.Pi, math.Pi, 0) {
		t.Error("identical values must compare equal")
	}
}
