// Package suite names the synthetic stand-ins for the paper's benchmark
// suite. Fig 1 evaluates SPECjbb (Linux and AIX), SPECpower, four OLTP
// workloads, the SPEC 2006 average, and notes that individual SPEC apps
// have discrete working sets. Each suite entry pins the α its stand-in
// generator targets, chosen so the per-workload extremes (OLTP-2 at 0.36,
// OLTP-4 at 0.62) and the commercial average (≈0.48) match the paper's
// curve fits.
package suite

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Class groups workloads the way the paper's Fig 1 legend does.
type Class string

// Workload classes.
const (
	Commercial Class = "commercial"
	SPEC2006   Class = "spec2006"
)

// Workload is one named benchmark stand-in.
type Workload struct {
	Name  string
	Class Class
	// TargetAlpha is the α the generator is built to exhibit; 0 marks a
	// phased (non-power-law) workload.
	TargetAlpha float64
	// WriteFraction is the stand-in's store share.
	WriteFraction float64
	// Phased marks discrete-working-set behaviour.
	Phased bool
}

// Paper lists the Fig 1 suite in legend order. The individual commercial
// αs average to 0.486, matching the paper's 0.48 commercial fit; OLTP-2
// and OLTP-4 sit at the published extremes.
var Paper = []Workload{
	{Name: "SPECjbb (linux)", Class: Commercial, TargetAlpha: 0.50, WriteFraction: 0.28},
	{Name: "SPECjbb (aix)", Class: Commercial, TargetAlpha: 0.53, WriteFraction: 0.28},
	{Name: "SPECpower", Class: Commercial, TargetAlpha: 0.42, WriteFraction: 0.22},
	{Name: "OLTP-1", Class: Commercial, TargetAlpha: 0.44, WriteFraction: 0.35},
	{Name: "OLTP-2", Class: Commercial, TargetAlpha: 0.36, WriteFraction: 0.35},
	{Name: "OLTP-3", Class: Commercial, TargetAlpha: 0.55, WriteFraction: 0.35},
	{Name: "OLTP-4", Class: Commercial, TargetAlpha: 0.62, WriteFraction: 0.35},
	{Name: "SPEC2006 (avg)", Class: SPEC2006, TargetAlpha: 0.25, WriteFraction: 0.25},
	{Name: "SPEC-app (phased)", Class: SPEC2006, Phased: true, WriteFraction: 0.20},
}

// BuildOptions tunes generator construction.
type BuildOptions struct {
	// FootprintLines sizes the power-law generators' initial footprint.
	FootprintLines int
	// PhasedLines sizes the phased workload's working set.
	PhasedLines uint64
	// PhasedDwell is the phased workload's accesses per phase.
	PhasedDwell int
	// Seed offsets all generator seeds.
	Seed int64
}

// DefaultBuildOptions matches the fig01 full-fidelity configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		FootprintLines: 1 << 20,
		PhasedLines:    16384,
		PhasedDwell:    500_000,
	}
}

// Build constructs the workload's generator.
func (w Workload) Build(o BuildOptions) (trace.Generator, error) {
	if o.FootprintLines <= 0 || o.PhasedLines == 0 || o.PhasedDwell <= 0 {
		return nil, fmt.Errorf("suite: invalid build options %+v", o)
	}
	// Seed derives from the name so each workload is stable but distinct.
	seed := o.Seed
	for _, r := range w.Name {
		seed = seed*131 + int64(r)
	}
	if w.Phased {
		return workload.NewPhased(o.PhasedLines, o.PhasedDwell, w.WriteFraction, seed, 0, 0)
	}
	return workload.NewStackDistance(workload.StackDistanceConfig{
		Alpha:          w.TargetAlpha,
		HotLines:       256,
		FootprintLines: o.FootprintLines,
		WriteFraction:  w.WriteFraction,
		WritesPerLine:  true,
		Seed:           seed,
	})
}
