package workload

import "math"

// Shape of paretoDraw's estimate and of the guard band around it.
const (
	paretoBits   = 6    // k: top mantissa bits of u that index the table
	paretoDegree = 7    // D: degree of the Taylor polynomial in r
	paretoGuard  = 1e-9 // δ: relative half-width of the guard band
)

// paretoDraw turns a uniform draw u ∈ [0, 1) into the reuse depth that
// inverting P(D > x) = (x/H)^-α gives: x = float64(H)·math.Pow(u, -1/α),
// a cold miss if x ≥ n (the stack length), else depth int(x). The stream
// depends on nothing but that cold flag and that depth, so depth may take
// them from a cheaper estimate of x whenever no rounding error could move
// them, and must run the math.Pow expression above otherwise.
//
// Write y = -1/α and u = 2^-e·m with m ∈ [1, 2). Let m_j be m cut to its
// top k mantissa bits, r = (m − m_j)/m_j ∈ [0, 2^-k), and P the degree-D
// Taylor polynomial of (1+r)^y. The estimate is
//
//	x̃ = H·(2^-e)^y · m_j^y · P(r),
//
// read from tables built once per generator: H·(2^-e)^y for e = 1..64,
// m_j^y and 2^-52/m_j for the 2^k values of j, and the binomial
// coefficients C(y, i) for i = 1..D. depth takes x̃'s answer only when the
// guard band x̃·(1 ± δ) lies wholly at or above n (a cold miss), or wholly
// below n without straddling an integer (a depth). Every other draw, and
// every u outside [2^-64, 1), runs the math.Pow expression.
//
// Exactness budget. x̃'s relative error is at most the truncation term
// |C(y, D+1)|·2^-(D+1)k, times (1+2^-k)^|y| ≤ 1.2 where a table is built,
// plus a few ulps of rounding in the tables, the polynomial and the two
// products. math.Pow's own relative error on these arguments is a few
// 1e-15: its Exp(yf·Log u) step, with |yf| ≤ 1/2 and |ln u| < 45, loses a
// few ulps of an argument below 23 (2.8e-15 was the worst against a
// 60-digit reference). newParetoDraw builds no table, and every draw runs
// math.Pow, when the truncation term exceeds δ/16; a non-finite y fails
// that test too. Otherwise both errors together stay below δ/8, so the
// reference x lies inside the band and the band's answer is x's answer.
// The choice depends on α alone: with k = 6 and D = 7, the fig01 α values
// 0.25–0.62 all get a table (the worst term is 5.9e-13, at α = 0.25),
// and α ≤ 0.1 gets none. Near an integer or near n the band is too wide
// to decide, which sends about one uniform draw in 10^5 to math.Pow at
// fig01's stack lengths.
type paretoDraw struct {
	hot   float64                  // float64(H), the reference's factor
	y     float64                  // -1/α, the reference's exponent
	table bool                     // whether the arrays below are built
	scale [64]float64              // H·(2^-e)^y at index e-1
	mPow  [1 << paretoBits]float64 // m_j^y, m_j = 1 + j·2^-k
	rInv  [1 << paretoBits]float64 // 2^-52/m_j: r = (m's low mantissa bits)·rInv[j]
	coef  [paretoDegree]float64    // C(y, i) at index i-1; depth writes P out for D = 7
}

// newParetoDraw builds the draw for exponent alpha and floor hot (H),
// with its tables if the exactness budget allows them.
func newParetoDraw(alpha float64, hot int) paretoDraw {
	p := paretoDraw{hot: float64(hot), y: -1 / alpha}
	c := 1.0 // C(y, i), by C(y, i+1) = C(y, i)·(y − i)/(i + 1)
	for i := range p.coef {
		c *= (p.y - float64(i)) / float64(i+1)
		p.coef[i] = c
	}
	tail := math.Abs(c*(p.y-paretoDegree)/(paretoDegree+1)) * math.Ldexp(1, -(paretoDegree+1)*paretoBits)
	if !(tail <= paretoGuard/16) { // false for a NaN tail too
		return p
	}
	for j := range p.mPow {
		m := 1 + math.Ldexp(float64(j), -paretoBits)
		p.mPow[j] = math.Pow(m, p.y)
		p.rInv[j] = math.Ldexp(1/m, -52)
	}
	for i := range p.scale {
		p.scale[i] = p.hot * math.Pow(math.Ldexp(1, -(i+1)), p.y)
	}
	p.table = true
	return p
}

// depth returns the reuse depth for uniform draw u on a stack of n lines,
// or cold when the draw lands at or beyond n: exactly what the math.Pow
// expression in the type's doc returns, for every u in [0, 1) and every
// α that StackDistanceConfig.Validate accepts.
func (p *paretoDraw) depth(u float64, n int) (depth int, cold bool) {
	b := math.Float64bits(u)
	if i := 1022 - int(b>>52); p.table && uint(i) < uint(len(p.scale)) {
		j := b >> (52 - paretoBits) & (1<<paretoBits - 1)
		r := float64(b&(1<<(52-paretoBits)-1)) * p.rInv[j]
		// P(r) = 1 + Σ C(y, i)·r^i in Estrin's form, whose dependency
		// chain is half as long as Horner's.
		c := &p.coef
		r2 := r * r
		r4 := r2 * r2
		poly := (1 + r*c[0]) + r2*(c[1]+r*c[2]) + r4*((c[3]+r*c[4])+r2*(c[5]+r*c[6]))
		x := p.scale[i] * p.mPow[j] * poly
		lo, hi := x*(1-paretoGuard), x*(1+paretoGuard)
		if lo >= float64(n) {
			return 0, true
		}
		if hi < float64(n) && int(lo) == int(hi) {
			return int(lo), false
		}
	}
	x := p.hot * math.Pow(u, p.y)
	if x >= float64(n) {
		return 0, true
	}
	return int(x), false
}
