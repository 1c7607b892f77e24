package workload_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/suite"
	"repro/internal/workload"
)

// powDepth is the reference paretoDraw must match: plain math.Pow
// inversion, the expression sampleDepth runs for draws the table cannot
// decide.
func powDepth(alpha float64, hot int, u float64, n int) (depth int, cold bool) {
	x := float64(hot) * math.Pow(u, -1/alpha)
	if x >= float64(n) {
		return 0, true
	}
	return int(x), false
}

// paretoAlphas are every power-law target of suite.Paper plus exponents
// on both sides of the table's α cutoff.
func paretoAlphas() []float64 {
	alphas := []float64{0.02, 0.05, 0.1, 0.2, 1.0, 1.5}
	for _, wl := range suite.Paper {
		if !wl.Phased {
			alphas = append(alphas, wl.TargetAlpha)
		}
	}
	return alphas
}

// crossing returns adjacent floats a < b = Nextafter(a, 1) between which
// the reference's x = hot·math.Pow(u, -1/α) falls from ≥ x0 to < x0,
// walking from the closed-form estimate u = (x0/hot)^-α. ok is false if
// no such pair lies within 1024 ulps of the estimate.
func crossing(alpha float64, hot int, x0 float64) (a, b float64, ok bool) {
	above := func(u float64) bool { return float64(hot)*math.Pow(u, -1/alpha) >= x0 }
	u := math.Pow(x0/float64(hot), -alpha)
	for range 1024 {
		if above(u) {
			a, b = u, math.Nextafter(u, 1)
			if !above(b) {
				return a, b, true
			}
			u = b
		} else {
			a, b = math.Nextafter(u, 0), u
			if above(a) {
				return a, b, true
			}
			u = a
		}
	}
	return 0, 0, false
}

func TestParetoDrawMatchesPow(t *testing.T) {
	const n = 1 << 17 // fig01's quick footprint
	const crossings = 10_000
	for _, alpha := range paretoAlphas() {
		for _, hot := range []int{1, 64, 256} {
			depth, tabled := workload.ParetoDraw(alpha, hot)
			if tabled != (alpha > 0.1) {
				t.Errorf("α=%g: tabled %v, want %v (the budget tables every α above 0.1)", alpha, tabled, alpha > 0.1)
			}
			check := func(u float64) {
				gd, gc := depth(u, n)
				wd, wc := powDepth(alpha, hot, u, n)
				if gd != wd || gc != wc {
					t.Fatalf("α=%g H=%d u=%v (%#x): depth %d cold %v, math.Pow gives %d %v",
						alpha, hot, u, math.Float64bits(u), gd, gc, wd, wc)
				}
			}
			// Both neighbours of every crossing: x passing each of ~10^4
			// integers spread log-uniformly over (H, n], the last being n,
			// the cold boundary.
			prev := hot
			for i := 1; i <= crossings; i++ {
				k := int(float64(hot) * math.Pow(float64(n)/float64(hot), float64(i)/crossings))
				if k == prev {
					continue
				}
				prev = k
				a, b, ok := crossing(alpha, hot, float64(k))
				if !ok {
					t.Fatalf("α=%g H=%d: math.Pow's x does not cross %d within 1024 ulps of the closed form", alpha, hot, k)
				}
				for _, u := range []float64{math.Nextafter(a, 0), a, b, math.Nextafter(b, 1)} {
					check(u)
				}
			}
			for _, u := range []float64{0, 0x1p-63, 1 - 0x1p-53} {
				check(u)
			}
			rng := rand.New(rand.NewSource(int64(hot) + int64(alpha*1000)))
			for range 1_000_000 {
				check(rng.Float64())
			}
		}
	}
}

func FuzzParetoDraw(f *testing.F) {
	f.Fuzz(func(t *testing.T, alpha float64, ubits uint64, hot, n uint32) {
		u := math.Float64frombits(ubits)
		if !(alpha > 0 && alpha <= 1.5) || !(u >= 0 && u < 1) || hot == 0 || n <= hot {
			return // outside StackDistanceConfig.Validate's range, or not a uniform draw
		}
		depth, _ := workload.ParetoDraw(alpha, int(hot))
		gd, gc := depth(u, int(n))
		wd, wc := powDepth(alpha, int(hot), u, int(n))
		if gd != wd || gc != wc {
			t.Fatalf("α=%g H=%d n=%d u=%v: depth %d cold %v, math.Pow gives %d %v", alpha, hot, n, u, gd, gc, wd, wc)
		}
	})
}
