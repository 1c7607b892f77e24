package technique

import "fmt"

// Assumption selects one of the paper's three effectiveness scenarios for a
// technique (Table 2): the candle-bar range of Fig 15.
type Assumption int

const (
	// Pessimistic uses the low end of published effectiveness.
	Pessimistic Assumption = iota
	// Realistic uses the paper's headline value.
	Realistic
	// Optimistic uses the high end of published effectiveness.
	Optimistic
)

// Assumptions lists all three scenarios in candle order.
var Assumptions = []Assumption{Pessimistic, Realistic, Optimistic}

// String implements fmt.Stringer.
func (a Assumption) String() string {
	switch a {
	case Pessimistic:
		return "pessimistic"
	case Realistic:
		return "realistic"
	case Optimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("Assumption(%d)", int(a))
	}
}

// Rating is a qualitative level used in Table 2's Effectiveness / Range /
// Complexity columns.
type Rating int

const (
	// Low rating.
	Low Rating = iota
	// Medium rating.
	Medium
	// High rating.
	High
)

// String implements fmt.Stringer.
func (r Rating) String() string {
	switch r {
	case Low:
		return "Low"
	case Medium:
		return "Med."
	case High:
		return "High"
	default:
		return fmt.Sprintf("Rating(%d)", int(r))
	}
}

// CatalogEntry describes one technique family and how to instantiate it
// under each assumption — the machine-readable form of Table 2.
type CatalogEntry struct {
	Label         string // paper's x-axis label
	Name          string // Table 2 "Technique" column
	Cat           Category
	Effectiveness Rating
	Range         Rating
	Complexity    Rating
	// Scenario holds the Table 2 parameter text per assumption.
	Scenario map[Assumption]string
	// New builds the technique for the given assumption. For single-point
	// techniques (3D-stacked SRAM) every assumption yields the same value.
	New func(a Assumption) Technique
}

// pick returns the value for assumption a out of (pess, real, opt).
func pick(a Assumption, pess, real, opt float64) float64 {
	switch a {
	case Pessimistic:
		return pess
	case Optimistic:
		return opt
	default:
		return real
	}
}

// Catalog is the paper's Table 2: every individual technique with its
// pessimistic/realistic/optimistic parameters and qualitative ratings, in
// the x-axis order of Fig 15.
var Catalog = []CatalogEntry{
	{
		Label: "CC", Name: "Cache Compress", Cat: Indirect,
		Effectiveness: Medium, Range: Low, Complexity: Medium,
		Scenario: map[Assumption]string{
			Pessimistic: "1.25x compr.", Realistic: "2x compr.", Optimistic: "3.5x compr.",
		},
		New: func(a Assumption) Technique {
			return CacheCompression{Ratio: pick(a, 1.25, 2.0, 3.5)}
		},
	},
	{
		Label: "DRAM", Name: "DRAM Cache", Cat: Indirect,
		Effectiveness: High, Range: Medium, Complexity: Low,
		Scenario: map[Assumption]string{
			Pessimistic: "4x density", Realistic: "8x density", Optimistic: "16x density",
		},
		New: func(a Assumption) Technique {
			return DRAMCache{Density: pick(a, 4, 8, 16)}
		},
	},
	{
		Label: "3D", Name: "3D-stacked Cache", Cat: Indirect,
		Effectiveness: Medium, Range: Low, Complexity: High,
		Scenario: map[Assumption]string{
			Pessimistic: "3D SRAM layer", Realistic: "3D SRAM layer", Optimistic: "3D SRAM layer",
		},
		New: func(Assumption) Technique {
			return ThreeDCache{LayerDensity: 1}
		},
	},
	{
		Label: "Fltr", Name: "Unused Data Filter", Cat: Indirect,
		Effectiveness: Medium, Range: Medium, Complexity: Medium,
		Scenario: map[Assumption]string{
			Pessimistic: "10% unused data", Realistic: "40% unused data", Optimistic: "80% unused data",
		},
		New: func(a Assumption) Technique {
			return UnusedDataFilter{Unused: pick(a, 0.10, 0.40, 0.80)}
		},
	},
	{
		Label: "SmCo", Name: "Smaller Cores", Cat: Indirect,
		Effectiveness: Low, Range: Low, Complexity: Low,
		Scenario: map[Assumption]string{
			Pessimistic: "9x less area", Realistic: "40x less area", Optimistic: "80x less area",
		},
		New: func(a Assumption) Technique {
			return SmallerCores{AreaFraction: 1 / pick(a, 9, 40, 80)}
		},
	},
	{
		Label: "LC", Name: "Link Compress", Cat: Direct,
		Effectiveness: High, Range: Medium, Complexity: Low,
		Scenario: map[Assumption]string{
			Pessimistic: "1.25x compr.", Realistic: "2x compr.", Optimistic: "3.5x compr.",
		},
		New: func(a Assumption) Technique {
			return LinkCompression{Ratio: pick(a, 1.25, 2.0, 3.5)}
		},
	},
	{
		Label: "Sect", Name: "Sectored Caches", Cat: Direct,
		Effectiveness: Medium, Range: High, Complexity: Medium,
		Scenario: map[Assumption]string{
			Pessimistic: "10% unused data", Realistic: "40% unused data", Optimistic: "80% unused data",
		},
		New: func(a Assumption) Technique {
			return SectoredCache{Unused: pick(a, 0.10, 0.40, 0.80)}
		},
	},
	{
		Label: "SmCl", Name: "Smaller Cache Lines", Cat: Dual,
		Effectiveness: High, Range: High, Complexity: Medium,
		Scenario: map[Assumption]string{
			Pessimistic: "10% unused data", Realistic: "40% unused data", Optimistic: "80% unused data",
		},
		New: func(a Assumption) Technique {
			return SmallCacheLines{Unused: pick(a, 0.10, 0.40, 0.80)}
		},
	},
	{
		Label: "CC/LC", Name: "Cache+Link Compress", Cat: Dual,
		Effectiveness: High, Range: High, Complexity: Low,
		Scenario: map[Assumption]string{
			Pessimistic: "1.25x compr.", Realistic: "2x compr.", Optimistic: "3.5x compr.",
		},
		New: func(a Assumption) Technique {
			return CacheLinkCompression{Ratio: pick(a, 1.25, 2.0, 3.5)}
		},
	},
}

// Fig16Combos returns the 15 technique combinations of Fig 16 (besides
// IDEAL and BASE), built under the given assumption, in the paper's x-axis
// order. The 3D layers within combinations are SRAM unless a DRAM technique
// in the same stack upgrades them (Stack.Params handles that interaction).
func Fig16Combos(a Assumption) []Stack {
	cc := func() Technique { return Catalog[0].New(a) }
	dram := func() Technique { return Catalog[1].New(a) }
	threeD := func() Technique { return Catalog[2].New(a) }
	fltr := func() Technique { return Catalog[3].New(a) }
	lc := func() Technique { return Catalog[5].New(a) }
	sect := func() Technique { return Catalog[6].New(a) }
	smcl := func() Technique { return Catalog[7].New(a) }
	cclc := func() Technique { return Catalog[8].New(a) }
	return []Stack{
		Combine(cc(), dram(), threeD()),
		Combine(cclc(), dram()),
		Combine(cc(), threeD(), fltr()),
		Combine(cclc(), fltr()),
		Combine(dram(), threeD(), lc()),
		Combine(dram(), fltr(), lc()),
		Combine(dram(), lc(), sect()),
		Combine(threeD(), fltr(), lc()),
		Combine(smcl(), lc()),
		Combine(cclc(), smcl()),
		Combine(dram(), threeD(), smcl()),
		Combine(cclc(), dram(), smcl()),
		Combine(cclc(), threeD(), smcl()),
		Combine(cclc(), dram(), threeD()),
		Combine(cclc(), dram(), threeD(), smcl()),
	}
}
