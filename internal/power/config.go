package power

import (
	"fmt"
	"math"
)

// Config describes a CMP die allocation in Core Equivalent Areas (CEAs),
// the unit of Table 1 in the paper. One CEA is the area of one processor
// core plus its L1 caches; N = P + C.
type Config struct {
	P float64 // CEAs (and count) of cores
	C float64 // CEAs of on-chip cache
}

// Validate reports whether the allocation is physical.
func (c Config) Validate() error {
	if !(c.P > 0) || math.IsInf(c.P, 0) || math.IsNaN(c.P) {
		return fmt.Errorf("power: core CEAs must be positive and finite, got %g", c.P)
	}
	if c.C < 0 || math.IsInf(c.C, 0) || math.IsNaN(c.C) {
		return fmt.Errorf("power: cache CEAs must be non-negative and finite, got %g", c.C)
	}
	return nil
}

// N returns the total die area P + C in CEAs.
func (c Config) N() float64 { return c.P + c.C }

// S returns the cache-per-core ratio C/P (Table 1).
func (c Config) S() float64 { return c.C / c.P }

// CoreAreaFraction returns the fraction of the die allocated to cores.
func (c Config) CoreAreaFraction() float64 { return c.P / c.N() }

// String renders the allocation in the paper's vocabulary.
func (c Config) String() string {
	return fmt.Sprintf("Config{P=%g cores, C=%g cache CEAs, N=%g, S=%g}", c.P, c.C, c.N(), c.S())
}

// Baseline returns the paper's baseline CMP: a balanced Niagara2-like chip
// with 8 cores and 8 CEAs of L2 cache (≈4MB), i.e. N1=16, S1=1 (§5.1).
func Baseline() Config { return Config{P: 8, C: 8} }
