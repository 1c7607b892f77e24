package scaling

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/technique"
)

// certificateErr checks sol against the certificate's definition by direct
// evaluation of c's walls: every wall holds at sol.Cores within
// CertifyEps, sol.Walls reports exactly those usages, every usage and
// headroom is finite, sol.Cores lies within one of ⌊Exact⌋, and, with
// maximal set, sol.Cores+1 leaves the die or breaks a wall.
func certificateErr(c Constraint, s Solver, pm technique.Params, n2 float64, gen int, sol Solution, maximal bool) error {
	p := float64(sol.Cores)
	if len(sol.Walls) != len(c.walls) {
		return fmt.Errorf("%d wall reports for %d walls", len(sol.Walls), len(c.walls))
	}
	broken := p+1 > n2/pm.CoreArea
	for i, w := range c.walls {
		limit := w.LimitAt(gen)
		u := w.Usage(s, pm, n2, p, gen)
		if !(u <= limit*(1+CertifyEps)) {
			return fmt.Errorf("%s wall: usage %v at %d cores exceeds its limit %v", w.Kind(), u, sol.Cores, limit)
		}
		wh := sol.Walls[i]
		if wh.Usage != u || wh.Headroom != limit-u {
			return fmt.Errorf("%s wall reports usage %v, headroom %v at %d cores; direct %v, %v", w.Kind(), wh.Usage, wh.Headroom, sol.Cores, u, limit-u)
		}
		if math.IsInf(u, 0) || math.IsNaN(u) || math.IsInf(wh.Headroom, 0) || math.IsNaN(wh.Headroom) {
			return fmt.Errorf("%s wall: usage %v, headroom %v not finite", w.Kind(), u, wh.Headroom)
		}
		broken = broken || !(w.Usage(s, pm, n2, p+1, gen) <= limit*(1+CertifyEps))
	}
	if maximal && !broken {
		return fmt.Errorf("%d cores fit the die and every wall, but %d were served", sol.Cores+1, sol.Cores)
	}
	if d := p - math.Floor(sol.Exact); d < -1 || d > 1 {
		return fmt.Errorf("%d cores is more than one from ⌊%v⌋", sol.Cores, sol.Exact)
	}
	return nil
}

// TestCertifiedCores: whole counts are certified against the walls, not
// read off the float root. Roots that are exact integers (DRAM 4x on 32
// CEAs at 16 cores; CC/LC 3x at 24, where F·S = 1) keep their integer
// whichever side of it the float lands on; a root 5e-7 below 11 cores
// serves 10, since 11 exceed the budget by 8e-8; a die that a stacked
// cache keeps finite serves all 32 cores; and a root just below a die
// without one serves 31, which leave one CEA of cache.
func TestCertifiedCores(t *testing.T) {
	s := Default()
	for _, tc := range []struct {
		name   string
		st     technique.Stack
		budget float64
		want   int
	}{
		{"BASE", technique.Combine(), 1, 11},
		{"DRAM 4x", technique.Combine(technique.DRAMCache{Density: 4}), 1, 16},
		{"CC/LC 3x", technique.Combine(technique.CacheLinkCompression{Ratio: 3}), 1, 24},
		{"snap", technique.Combine(), 0.99515185892833691, 10},
		{"3D 64x", technique.Combine(technique.ThreeDCache{LayerDensity: 64}), 1, 32},
		{"CC 1e300", technique.Combine(technique.CacheCompression{Ratio: 1e300}), 1, 31},
	} {
		cons := Bandwidth(tc.budget, false)
		pm := tc.st.Params()
		sol, err := cons.Solve(context.Background(), nil, s, pm, 32, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Cores != tc.want {
			t.Errorf("%s: %d cores (exact %.12f), want %d", tc.name, sol.Cores, sol.Exact, tc.want)
		}
		if err := certificateErr(cons, s, pm, 32, 0, sol, true); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzCertifiedCores: every solve that succeeds serves a certified count
// (certificateErr). The inputs pick a stack of up to three registry
// techniques at a Table 2 assumption (an index past the registry means
// none), with param overriding the first technique's primary parameter
// when positive; α; the chip area n2; a bandwidth budget with its
// compound flag; thermal and energy limits; and a generation 0–4. A wall
// whose limit is not positive is left out, and cells whose limits
// overflow are skipped. Maximality is checked on chips of up to 2^20
// CEAs, at counts below 2^20 or at the die: past that one core can move
// a wall's usage by less than CertifyEps of its limit, so a count and its
// successor may both hold, and the one-step certificate serves within
// one core of the root instead.
func FuzzCertifiedCores(f *testing.F) {
	none := uint8(len(technique.Builders))
	idx := func(name string) uint8 {
		for i, b := range technique.Builders {
			if b.Name == name {
				return uint8(i)
			}
		}
		f.Fatalf("no registry technique %q", name)
		return 0
	}
	// The snap probe: BASE's root lies 5e-7 below 11 cores.
	f.Add(none, none, none, uint8(1), 0.0, 0.5, 32.0, 0.99515185892833691, false, 0.0, 0.0, uint8(0))
	// 3D at density 64 under bandwidth 1 and thermal 100: the die binds.
	f.Add(idx("3D"), none, none, uint8(1), 64.0, 0.5, 32.0, 1.0, false, 100.0, 0.0, uint8(0))
	// A lone energy wall at 1e300: its root lies just below the die.
	f.Add(none, none, none, uint8(1), 0.0, 0.5, 32.0, 0.0, false, 0.0, 1e300, uint8(0))
	// CC at ratio 1e300: the bandwidth root lies just below the die.
	f.Add(idx("CC"), none, none, uint8(1), 1e300, 0.5, 32.0, 1.0, false, 0.0, 0.0, uint8(0))
	// A die of 2^53 − 2 cores that a stacked die fills.
	f.Add(idx("3D"), none, none, uint8(1), 64.0, 0.5, float64(1<<53-2), 1e15, false, 0.0, 0.0, uint8(0))
	// Three techniques under three walls, compounding, at generation 3.
	f.Add(idx("DRAM"), idx("CC/LC"), idx("SmCo"), uint8(2), 0.0, 0.3, 256.0, 1.2, true, 5.0, 3.0, uint8(3))
	f.Fuzz(func(t *testing.T, t1, t2, t3, assume uint8, param, alpha, n2, budget float64, compound bool, thermal, energy float64, gen uint8) {
		a := technique.Assumptions[int(assume)%len(technique.Assumptions)]
		var ts []technique.Technique
		for i, ti := range []uint8{t1, t2, t3} {
			if int(ti) >= len(technique.Builders) {
				continue
			}
			b := technique.Builders[ti]
			params := b.Defaults(a)
			if i == 0 && param > 0 {
				params[b.Key] = param
			}
			tech, err := b.ParseParams(params)
			if err != nil {
				return
			}
			ts = append(ts, tech)
		}
		s, err := New(power.Baseline(), alpha)
		if err != nil {
			return
		}
		g := int(gen % 5)
		var walls []Wall
		if budget > 0 {
			walls = append(walls, BandwidthWall{Budget: budget, Compound: compound})
		}
		if thermal > 0 {
			walls = append(walls, ThermalWall{Limit: thermal, Growth: 1.4})
		}
		if energy > 0 {
			walls = append(walls, EnergyWall{Limit: energy})
		}
		cons := NewConstraint(walls...)
		for _, w := range walls {
			if math.IsInf(w.LimitAt(g), 0) {
				return
			}
		}
		pm := technique.Combine(ts...).Params()
		sol, err := cons.Solve(context.Background(), nil, s, pm, n2, g)
		if err != nil {
			return
		}
		maximal := n2 <= 1<<20 && (sol.Exact < 1<<20 || sol.Binding == KindDie)
		if err := certificateErr(cons, s, pm, n2, g, sol, maximal); err != nil {
			t.Errorf("%s on %g CEAs (α %g, gen %d, walls %+v): %v", technique.Combine(ts...).Label(), n2, alpha, g, walls, err)
		}
	})
}
