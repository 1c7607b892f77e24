// Package noc models the on-chip interconnect's area — the limit §6.1
// raises against the smaller-cores technique: "with increasingly smaller
// cores, the interconnection between cores (routers, links, buses, etc.)
// becomes increasingly larger and more complex."
//
// The model is a 2D mesh: one router per core plus per-hop link area. The
// router's area does not shrink with the core (its buffers and crossbar
// are sized by the flit width and the protocol, not the core), so as cores
// shrink the interconnect claims a growing share of each tile.
package noc

import "fmt"

// Mesh describes a 2D-mesh NoC.
type Mesh struct {
	// RouterAreaCEA is one router's die area in CEAs. A full-size core is
	// 1 CEA; a typical router is a few percent of that.
	RouterAreaCEA float64
	// LinkAreaCEA is the area of the wiring per tile.
	LinkAreaCEA float64
}

// Validate reports whether the mesh parameters are physical.
func (m Mesh) Validate() error {
	switch {
	case !(m.RouterAreaCEA > 0):
		return fmt.Errorf("noc: router area must be positive, got %g", m.RouterAreaCEA)
	case m.LinkAreaCEA < 0:
		return fmt.Errorf("noc: link area must be non-negative, got %g", m.LinkAreaCEA)
	}
	return nil
}

// Default returns a plausible mesh: router 4% of a baseline core, links
// 1%.
func Default() Mesh {
	return Mesh{RouterAreaCEA: 0.04, LinkAreaCEA: 0.01}
}

// TileOverheadCEA returns the interconnect area added to each core tile.
func (m Mesh) TileOverheadCEA() float64 { return m.RouterAreaCEA + m.LinkAreaCEA }

// OverheadFraction returns the interconnect's share of a tile for a core
// of the given area (in CEAs): the quantity that explodes as cores shrink.
func (m Mesh) OverheadFraction(coreAreaCEA float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if !(coreAreaCEA > 0) {
		return 0, fmt.Errorf("noc: core area must be positive, got %g", coreAreaCEA)
	}
	o := m.TileOverheadCEA()
	return o / (coreAreaCEA + o), nil
}

// EffectiveCoreArea returns the true per-tile area of a shrunken core once
// the non-shrinking interconnect is included — the corrected f_sm for the
// smaller-cores technique.
func (m Mesh) EffectiveCoreArea(coreAreaCEA float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if !(coreAreaCEA > 0) {
		return 0, fmt.Errorf("noc: core area must be positive, got %g", coreAreaCEA)
	}
	return coreAreaCEA + m.TileOverheadCEA(), nil
}
