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

// pick returns the entry of defs (pessimistic, realistic, optimistic)
// for assumption a; any other value reads the realistic one.
func pick(a Assumption, defs [3]float64) float64 {
	if a < Pessimistic || a > Optimistic {
		a = Realistic
	}
	return defs[a]
}

// Catalog is the paper's Table 2 as read off the Builders rows that carry
// it, in registry order, which is Fig 15's x-axis order. Each entry's
// category is its realistic technique's own, and its parameter texts
// render its rows' defaults.
var Catalog = table2Catalog()

func table2Catalog() []CatalogEntry {
	var out []CatalogEntry
	for _, b := range Builders {
		if b.param == nil {
			continue
		}
		e := CatalogEntry{
			Label: b.Name, Name: b.title,
			Effectiveness: b.effectiveness, Range: b.rng, Complexity: b.complexity,
			Scenario: make(map[Assumption]string, len(Assumptions)),
			New:      func(a Assumption) Technique { return mustDefault(b.Name, a) },
		}
		for _, a := range Assumptions {
			e.Scenario[a] = b.param(b.Defaults(a)[b.Key])
		}
		e.Cat = e.New(Realistic).Category()
		out = append(out, e)
	}
	return out
}

// mustDefault is BuildDefault for the names this package declares (the
// Builders rows and Fig16Stacks), whose defaults always build.
func mustDefault(name string, a Assumption) Technique {
	t, err := BuildDefault(name, a)
	if err != nil {
		panic(err)
	}
	return t
}

// Fig16Stacks lists Fig 16's fifteen technique combinations (besides
// IDEAL and BASE) by builder name, in the paper's x-axis order. The 3D
// layers within them are SRAM unless a DRAM technique in the same stack
// upgrades them (Stack.Params handles that interaction).
var Fig16Stacks = [][]string{
	{"CC", "DRAM", "3D"},
	{"CC/LC", "DRAM"},
	{"CC", "3D", "Fltr"},
	{"CC/LC", "Fltr"},
	{"DRAM", "3D", "LC"},
	{"DRAM", "Fltr", "LC"},
	{"DRAM", "LC", "Sect"},
	{"3D", "Fltr", "LC"},
	{"SmCl", "LC"},
	{"CC/LC", "SmCl"},
	{"DRAM", "3D", "SmCl"},
	{"CC/LC", "DRAM", "SmCl"},
	{"CC/LC", "3D", "SmCl"},
	{"CC/LC", "DRAM", "3D"},
	{"CC/LC", "DRAM", "3D", "SmCl"},
}

// Fig16Combos returns the Fig16Stacks combinations, each member built
// with its Table 2 parameters under the given assumption.
func Fig16Combos(a Assumption) []Stack {
	out := make([]Stack, len(Fig16Stacks))
	for i, names := range Fig16Stacks {
		ts := make([]Technique, len(names))
		for j, name := range names {
			ts[j] = mustDefault(name, a)
		}
		out[i] = Stack{techs: ts}
	}
	return out
}
