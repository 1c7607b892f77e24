package workload

import (
	"math"
	"math/rand"
)

// Shape of zipfDraw's table and of the guard band around each decision.
const (
	zipfV        = 1       // v, the offset of rand.Zipf's P(k) ∝ (v + k)^-q, as the generators pass it
	zipfGuard    = 1e-9    // δ: guard band half-width, relative to x + v
	zipfBuckets  = 1 << 14 // equal buckets of r, each with a start into the table
	zipfMaxLines = 1 << 16 // regions of more lines get no table; k fits a uint16
)

// minZipfSkew is the smallest skew NewZipf and SharedPrivateConfig accept.
// Nearer 1, rand.Zipf's arithmetic, which zipfDraw's exact path
// transcribes, cancels until the draws stop being Zipf: at 1 + 2^-52 over
// 11 lines, line 0 and line 10 each took about 10 % of the draws, where
// Zipf gives them about 33 % and 3 %. The skews in use are 1.01 and
// 1.0001.
const minZipfSkew = 1 + 1e-9

// zipfDraw draws k ∈ [0, imax] with P(k) ∝ (k + 1)^-q: the values
// math/rand's Zipf returns for rand.NewZipf(rng, q, 1, imax), draw for
// draw, with the same rng.Float64 calls, but clamped to imax: at q =
// 1.0001, rand.Zipf returns imax + 1 for every r ≤ 580,611·2^-63 with
// imax = 2^20 − 1, and r ≤ 873,680·2^-63 with imax = 8,191. It holds no
// Rand, so one zipfDraw serves every region of its size.
//
// rand.Zipf is Hörmann and Derflinger's rejection-inversion. Each uniform
// r ∈ [0, 1) gives x = hinv(hxm + r·hx0minusHxm) and k = ⌊x + ½⌋, and k is
// accepted at once when k − x ≤ s; otherwise a second test accepts k or
// draws a fresh r. For q > 1, x falls as r grows, so for each k the r
// with x in the accept-at-once band [k − s, k + ½) form one interval
// (the band is [k − ½, k + ½) if s ≥ ½). The table holds, for every
// k ≤ imax, the open r-interval (lo, hi) on which x lies in
// (k − s + m, k + ½ − m), the band narrowed at each end by a guard
// m = δ·(k + v + 1), and a start k for each of 2^14 equal buckets of r.
// decide walks k down from r's bucket start while the next interval
// begins below r, and returns k only when r lies strictly inside k's
// interval. Every other r runs rand.Zipf's own loop body: r in a guard
// band, r whose x falls in the sliver [k − ½, k − s) that the second test
// decides, and r near 0, where the first test accepts a k past imax.
//
// Exactness budget. Both the reference's x at a given r and the x at
// which a stored bound was computed differ from the exact function of r
// by at most B·(x + v), with
//
//	B = 8·2^-53·((1 + |hx0minusHxm/hxm|)/(q − 1) + ln(imax + 2) + 1):
//
// a few roundings of ur = hxm + r·hx0minusHxm, each at most
// |hx0minusHxm| + |ur| ≤ (1 + |hx0minusHxm/hxm|)·|ur| in size, reach x
// amplified by 1/(q − 1) through hinv's exponent, and math.Log and
// math.Exp add an ulp each, on exponents of at most ln(imax + 2).
// newZipfDraw builds no table when B exceeds δ/8 (a non-finite B fails
// too) or when imax + 1 exceeds 2^16 lines. Otherwise the reference's x
// for any r inside k's interval lies within m/4 of that band, so
// ⌊x + ½⌋ = k and k − x ≤ s hold in floating point, and rand.Zipf
// returns k on its first test. At fig14's q = 1.01 and imax = 8,191, B is
// about 1e-13 and the table decides 98.5 % of draws; ext-drambw's
// 2^20-line stream at q = 1.0001 builds none and runs the loop body.
type zipfDraw struct {
	// rand.Zipf's constants, computed by its own expressions.
	q, oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm, s        float64
	imax                       uint64

	band  []zipfBand // band[k]: the r-interval that decides k; nil without a table
	start []uint16   // start[i]: the first k decide tries for r in [i, i+1)/zipfBuckets
}

// zipfBand is the open interval of r that decides one k from the table.
type zipfBand struct{ lo, hi float64 }

// newZipfDraw builds the draw for skew q and largest value imax, with its
// table if the exactness budget and the size cap allow one. The caller
// keeps q finite and above 1.
func newZipfDraw(q float64, imax uint64) *zipfDraw {
	z := &zipfDraw{q: q, oneminusQ: 1 - q, imax: imax}
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(zipfV)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(zipfV+1.0)))

	budget := 8 * 0x1p-53 * ((1+math.Abs(z.hx0minusHxm/z.hxm))/(q-1) + math.Log(float64(imax)+2) + 1)
	if imax >= zipfMaxLines || !(budget <= zipfGuard/8) {
		return z
	}
	z.band = make([]zipfBand, imax+1)
	sAccept := min(z.s, 0.5)
	for k := range z.band {
		m := zipfGuard * (float64(k) + zipfV + 1)
		z.band[k] = zipfBand{lo: z.rOf(float64(k) + 0.5 - m), hi: z.rOf(float64(k) - sAccept + m)}
	}
	z.start = make([]uint16, zipfBuckets)
	k := int(imax)
	for i := range z.start {
		r := float64(i) / zipfBuckets
		for k > 0 && z.band[k-1].lo < r {
			k--
		}
		z.start[i] = uint16(k)
	}
	return z
}

// h and hinv are rand.Zipf's, at v = 1.
func (z *zipfDraw) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(zipfV+x)) * z.oneminusQinv
}

func (z *zipfDraw) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - zipfV
}

// rOf inverts r ↦ hinv(hxm + r·hx0minusHxm) at x.
func (z *zipfDraw) rOf(x float64) float64 {
	return (z.h(x) - z.hxm) / z.hx0minusHxm
}

// next returns the next value, drawing uniforms from rng as rand.Zipf's
// Uint64 does.
func (z *zipfDraw) next(rng *rand.Rand) uint64 {
	for {
		if k, ok := z.decide(rng.Float64()); ok {
			return k
		}
	}
}

// decide returns what one pass of rand.Zipf's loop does with uniform r:
// the value, or ok false where the loop rejects r and draws again. It
// takes the value from the table when r lies inside a band, and runs
// exact otherwise.
func (z *zipfDraw) decide(r float64) (uint64, bool) {
	if z.band != nil {
		k := int(z.start[int(r*zipfBuckets)])
		for k > 0 && z.band[k-1].lo < r {
			k--
		}
		if b := z.band[k]; b.lo < r && r < b.hi {
			return uint64(k), true
		}
	}
	return z.exact(r)
}

// exact is one pass of rand.Zipf's loop on uniform r, in its arithmetic,
// with an accepted value past imax clamped to imax.
func (z *zipfDraw) exact(r float64) (k uint64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	kf := math.Floor(x + 0.5)
	if kf-x <= z.s || ur >= z.h(kf+0.5)-math.Exp(-math.Log(kf+zipfV)*z.q) {
		return min(uint64(kf), z.imax), true
	}
	return 0, false
}
