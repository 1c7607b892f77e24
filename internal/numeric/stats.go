package numeric

import "math"

// AlmostEqual reports whether a and b are equal to within eps, relative to
// the larger magnitude for large values.
func AlmostEqual(a, b, eps float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		return diff <= eps*scale
	}
	return diff <= eps
}
