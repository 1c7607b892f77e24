package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// SharedPrivateConfig parameterizes a PARSEC-like multithreaded workload:
// a fixed shared data region touched by every thread, plus a private
// working set per thread. Bienia et al.'s PARSEC characterization (the
// paper's reference for Fig 14) observes exactly this structure: "while
// the shared data set size remains somewhat constant, each new thread
// requires its own private working set".
type SharedPrivateConfig struct {
	Threads          int     // number of threads (= cores in Fig 14)
	SharedLines      uint64  // size of the shared region, in lines
	PrivateLines     uint64  // per-thread private working set, in lines
	SharedAccessFrac float64 // probability an access targets shared data
	Skew             float64 // Zipf skew within each region (finite, ≥ 1 + 1e-9)
	WriteFraction    float64
	Seed             int64
}

// Validate reports whether the configuration is usable.
func (c SharedPrivateConfig) Validate() error {
	switch {
	case c.Threads < 1 || c.Threads > 128:
		return fmt.Errorf("workload: threads must be in [1,128], got %d", c.Threads)
	case c.SharedLines == 0 || c.PrivateLines == 0:
		return fmt.Errorf("workload: shared and private regions must be non-empty")
	case !(c.SharedAccessFrac >= 0 && c.SharedAccessFrac <= 1): // NaN fails too
		return fmt.Errorf("workload: SharedAccessFrac must be in [0,1], got %g", c.SharedAccessFrac)
	case !(c.Skew >= minZipfSkew) || math.IsInf(c.Skew, 1):
		return fmt.Errorf("workload: Skew must be finite and at least 1 + 1e-9, got %g", c.Skew)
	case !(c.WriteFraction >= 0 && c.WriteFraction <= 1):
		return fmt.Errorf("workload: WriteFraction must be in [0,1], got %g", c.WriteFraction)
	}
	return nil
}

// SharedPrivate emits a round-robin interleaving of per-thread access
// streams. The address space is laid out as
//
//	[0, SharedLines)                               shared region
//	[SharedLines + t·PrivateLines, +PrivateLines)  thread t's private region
//
// so a line is shared iff its address falls below SharedLines·LineBytes.
type SharedPrivate struct {
	cfg     SharedPrivateConfig
	rng     *rand.Rand
	shared  *zipfDraw
	private *zipfDraw // every thread's, offset into its own region
	nextTID int
}

// NewSharedPrivate constructs the generator.
func NewSharedPrivate(cfg SharedPrivateConfig) (*SharedPrivate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &SharedPrivate{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.shared = newZipfDraw(cfg.Skew, cfg.SharedLines-1)
	g.private = g.shared
	if cfg.PrivateLines != cfg.SharedLines {
		g.private = newZipfDraw(cfg.Skew, cfg.PrivateLines-1)
	}
	return g, nil
}

// IsSharedAddr reports whether addr lies in the shared region.
func (g *SharedPrivate) IsSharedAddr(addr uint64) bool {
	return addr < g.cfg.SharedLines*LineBytes
}

// Next implements trace.Generator: threads issue in round-robin order.
func (g *SharedPrivate) Next() trace.Access {
	t := g.nextTID
	g.nextTID++
	if g.nextTID == g.cfg.Threads {
		g.nextTID = 0
	}
	var line uint64
	if g.rng.Float64() < g.cfg.SharedAccessFrac {
		line = g.shared.next(g.rng)
	} else {
		line = g.cfg.SharedLines + uint64(t)*g.cfg.PrivateLines + g.private.next(g.rng)
	}
	return trace.Access{
		Addr:  line * LineBytes,
		TID:   uint8(t),
		Write: g.rng.Float64() < g.cfg.WriteFraction,
	}
}

// TotalFootprintLines returns the full footprint: shared + all privates.
func (g *SharedPrivate) TotalFootprintLines() uint64 {
	return g.cfg.SharedLines + uint64(g.cfg.Threads)*g.cfg.PrivateLines
}
