// Package power implements the paper's core analytical model: the power law
// of cache misses (Eq. 1–2) and the CMP memory-traffic model built on top of
// it (Eq. 3–5 of Rogers et al., "Scaling the Bandwidth Wall", ISCA 2009).
//
// The fundamental relation is
//
//	m = m0 · (C/C0)^-α
//
// where m0 is the miss rate at a baseline cache size C0 and α measures the
// workload's sensitivity to cache size (≈0.5 for the average commercial
// workload, the "√2 rule"). Because write backs are an application-constant
// fraction of misses, total memory traffic M obeys the same law (Eq. 2).
package power

import (
	"fmt"
	"math"
)

// Alpha bounds. Hartstein et al. report α in [0.3, 0.7] with average 0.5;
// the paper's own workloads span [0.25, 0.62]. We accept the wider (0, 1]
// range but reject non-physical values.
const (
	MinAlpha = 0.0 // exclusive
	MaxAlpha = 1.5 // generous upper bound; paper never exceeds 0.7
)

// Canonical α values used throughout the paper.
const (
	AlphaCommercialAvg = 0.48 // curve-fitted average of commercial workloads (Fig 1)
	AlphaDefault       = 0.5  // the √2 rule; used for all headline results
	AlphaSPEC2006      = 0.25 // smallest α observed (SPEC 2006 average)
	AlphaOLTPMin       = 0.36 // smallest individual commercial α (OLTP-2)
	AlphaOLTPMax       = 0.62 // largest individual commercial α (OLTP-4)
)

// PowerLaw models miss rate (or, equivalently, memory traffic) as a function
// of cache size: m(C) = M0 · (C/C0)^-Alpha.
type PowerLaw struct {
	M0    float64 // miss rate (or traffic) at the baseline cache size
	C0    float64 // baseline cache size (any consistent unit: bytes, KB, CEAs)
	Alpha float64 // cache-size sensitivity exponent
}

// Validate reports whether the law's parameters are physical.
func (p PowerLaw) Validate() error {
	if !(p.M0 > 0) || math.IsInf(p.M0, 0) {
		return fmt.Errorf("power: baseline miss rate M0 must be positive and finite, got %g", p.M0)
	}
	if !(p.C0 > 0) || math.IsInf(p.C0, 0) {
		return fmt.Errorf("power: baseline cache size C0 must be positive and finite, got %g", p.C0)
	}
	if !(p.Alpha > MinAlpha) || p.Alpha > MaxAlpha {
		return fmt.Errorf("power: alpha must be in (%g, %g], got %g", MinAlpha, MaxAlpha, p.Alpha)
	}
	return nil
}

// MissRate returns the predicted miss rate at cache size c (Eq. 1).
func (p PowerLaw) MissRate(c float64) float64 {
	return p.M0 * math.Pow(c/p.C0, -p.Alpha)
}

// CacheForMissRate inverts Eq. 1: the cache size needed to reach miss rate m.
func (p PowerLaw) CacheForMissRate(m float64) float64 {
	return p.C0 * math.Pow(m/p.M0, -1/p.Alpha)
}

// TrafficRatio returns m(c2)/m(c1): the multiplicative change in per-core
// traffic when the cache grows from c1 to c2.
func (p PowerLaw) TrafficRatio(c1, c2 float64) float64 {
	return math.Pow(c2/c1, -p.Alpha)
}

// HalvingFactor returns the factor by which the cache must grow to halve
// the miss rate: 2^(1/α). For α = 0.5 this is 4×; for α = 0.9 it is ≈2.16×
// (the example in §6.1 of the paper).
func (p PowerLaw) HalvingFactor() float64 {
	return math.Pow(2, 1/p.Alpha)
}

// WithWriteBacks converts a miss-rate law into a total-traffic law given the
// application's write-back ratio rwb (write backs per miss). Because rwb is
// a cache-size-independent constant, the law keeps the same exponent and C0
// and only scales M0 by (1+rwb) — this is exactly the cancellation argument
// of Eq. 2 in the paper.
func (p PowerLaw) WithWriteBacks(rwb float64) PowerLaw {
	return PowerLaw{M0: p.M0 * (1 + rwb), C0: p.C0, Alpha: p.Alpha}
}
