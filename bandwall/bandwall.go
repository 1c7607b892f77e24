// Package bandwall is the public API of this reproduction of Rogers et
// al., "Scaling the Bandwidth Wall: Challenges in and Avenues for CMP
// Scaling" (ISCA 2009).
//
// The library answers the paper's two questions:
//
//  1. How severely does limited off-chip bandwidth restrict multicore
//     scaling? Build a Solver over a baseline chip (Baseline, NewSolver)
//     and ask it for supportable core counts at future technology
//     generations (SupportableCores, SweepGenerations).
//  2. How much do bandwidth conservation techniques help? Compose
//     technique values (CacheCompression, DRAMCache, ThreeDCache,
//     LinkCompression, SmallCacheLines, …) with Combine and re-ask.
//
// The underlying model is the power law of cache misses,
// m = m0·(C/C0)^-α, lifted to chip level: M2/M1 = (P2/P1)·(S2/S1)^-α,
// where P is cores, S is cache per core in core-equivalent areas (CEAs),
// and α is the workload's cache sensitivity (≈0.5 for commercial work).
//
// Beyond the analytical model, the package exposes the measurement
// substrates used to reproduce the paper's empirical figures: synthetic
// workload generators and a cache simulator for miss curves (Fig 1), a
// shared-cache multicore simulator for data-sharing measurements (Fig 14),
// FPC/BDI compression engines grounding the compression assumptions, and a
// queueing model of the memory channel. Pre-packaged reproductions of
// every figure and table live in Experiments / RunExperiment.
//
// Quickstart:
//
//	s := bandwall.DefaultSolver() // 8 cores + 8 cache CEAs, α = 0.5
//	base, _ := s.MaxCores(bandwall.Combine(), 256, 1)
//	dram, _ := s.MaxCores(bandwall.Combine(bandwall.DRAMCache{Density: 8}), 256, 1)
//	fmt.Println(base, dram) // 24 47 — the paper's headline contrast
package bandwall

import (
	"context"

	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/scaling"
	"repro/internal/technique"
)

// Core model types, re-exported from the internal implementation.
type (
	// Config is a die allocation: P core CEAs and C cache CEAs (Table 1).
	Config = power.Config
	// PowerLaw is the miss-rate law m(C) = M0·(C/C0)^-α (Eq. 1).
	PowerLaw = power.PowerLaw
	// TrafficModel evaluates relative chip traffic (Eq. 3–5).
	TrafficModel = power.TrafficModel
	// Solver finds supportable core counts under traffic budgets (Eq. 6–7).
	Solver = scaling.Solver
	// Generation is one future technology generation.
	Generation = scaling.Generation
	// GenPoint is a per-generation scaling outcome.
	GenPoint = scaling.GenPoint
)

// Technique modeling types.
type (
	// Technique is one bandwidth-conservation mechanism (§6).
	Technique = technique.Technique
	// Stack is a combination of techniques (Fig 16).
	Stack = technique.Stack
	// Params is a stack's resolved effect on the traffic equation.
	Params = technique.Params
	// Assumption selects pessimistic/realistic/optimistic parameters.
	Assumption = technique.Assumption
	// CatalogEntry is one Table 2 row with per-assumption constructors.
	CatalogEntry = technique.CatalogEntry

	// CacheCompression stores lines compressed on chip (indirect).
	CacheCompression = technique.CacheCompression
	// DRAMCache implements on-chip cache in dense DRAM (indirect).
	DRAMCache = technique.DRAMCache
	// ThreeDCache stacks a cache-only die (indirect).
	ThreeDCache = technique.ThreeDCache
	// UnusedDataFilter evicts never-referenced words (indirect).
	UnusedDataFilter = technique.UnusedDataFilter
	// SmallerCores shrinks cores to free cache area (indirect).
	SmallerCores = technique.SmallerCores
	// LinkCompression compresses off-chip transfers (direct).
	LinkCompression = technique.LinkCompression
	// SectoredCache fetches only useful sectors (direct).
	SectoredCache = technique.SectoredCache
	// SmallCacheLines right-sizes lines (dual).
	SmallCacheLines = technique.SmallCacheLines
	// CacheLinkCompression compresses once for cache and link (dual).
	CacheLinkCompression = technique.CacheLinkCompression
	// DataSharing models multithreaded shared working sets (dual).
	DataSharing = technique.DataSharing
	// DataSharingPrivate is footnote 1's variant: sharing with private
	// (replicating) caches — fetch reduction only.
	DataSharingPrivate = technique.DataSharingPrivate
)

// Assumption values (Table 2 scenarios).
const (
	Pessimistic = technique.Pessimistic
	Realistic   = technique.Realistic
	Optimistic  = technique.Optimistic
)

// Canonical α values from the paper's Fig 1.
const (
	AlphaDefault       = power.AlphaDefault       // 0.5, the √2 rule
	AlphaCommercialAvg = power.AlphaCommercialAvg // 0.48
	AlphaSPEC2006      = power.AlphaSPEC2006      // 0.25
	AlphaOLTPMin       = power.AlphaOLTPMin       // 0.36
	AlphaOLTPMax       = power.AlphaOLTPMax       // 0.62
)

// Baseline returns the paper's balanced Niagara2-like baseline:
// 8 cores + 8 cache CEAs on a 16-CEA die.
func Baseline() Config { return power.Baseline() }

// NewSolver builds a Solver over a baseline allocation and workload α.
func NewSolver(base Config, alpha float64) (Solver, error) {
	return scaling.New(base, alpha)
}

// DefaultSolver returns the paper's canonical solver (Baseline, α = 0.5).
func DefaultSolver() Solver { return scaling.Default() }

// Combine builds a technique Stack; an empty call is the BASE (no
// technique) configuration.
func Combine(ts ...Technique) Stack { return technique.Combine(ts...) }

// Generations returns count future generations doubling from n1 CEAs.
func Generations(n1 float64, count int) []Generation {
	return scaling.Generations(n1, count)
}

// TechniqueCatalog returns the paper's Table 2 as data: every individual
// technique with pessimistic/realistic/optimistic parameters and ratings.
func TechniqueCatalog() []CatalogEntry { return technique.Catalog }

// Fig16Combos returns the technique combinations evaluated in Fig 16
// under the given assumption.
func Fig16Combos(a Assumption) []Stack { return technique.Fig16Combos(a) }

// ExperimentInfo describes one runnable paper reproduction.
type ExperimentInfo struct {
	ID    string
	Title string
	Paper string // the paper's reported outcome
}

// ExperimentResult is re-exported for experiment consumers.
type ExperimentResult = exp.Result

// Experiments lists every figure/table reproduction in paper order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	return out
}

// RunExperiment executes one reproduction by id. quick trades simulation
// fidelity for speed (model-exact figures are unaffected).
func RunExperiment(id string, quick bool) (*ExperimentResult, error) {
	return RunExperimentCtx(context.Background(), id, quick)
}

// RunExperimentCtx is RunExperiment with cancellation: the context is
// threaded into the driver's sweep loops, so Ctrl-C or a deadline aborts
// the experiment at the next batch boundary.
func RunExperimentCtx(ctx context.Context, id string, quick bool) (*ExperimentResult, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return exp.RunOne(ctx, e, exp.Options{Quick: quick})
}

// UnknownExperimentError reports a RunExperiment id miss.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "bandwall: unknown experiment " + e.ID
}
