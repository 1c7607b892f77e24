package technique

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/robust"
)

// Spec is the serializable form of one technique: a catalog name plus typed
// parameters. It is the unit the scenario engine and the CLI's JSON specs
// carry; Build turns it into a Technique value.
type Spec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// String renders the spec compactly, e.g. "CC{ratio:2}".
func (sp Spec) String() string {
	if len(sp.Params) == 0 {
		return sp.Name
	}
	keys := make([]string, 0, len(sp.Params))
	for k := range sp.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%g", k, sp.Params[k])
	}
	return sp.Name + "{" + strings.Join(parts, ",") + "}"
}

// Builder constructs one technique family by name. Key names the primary
// parameter (the one a compact "Label=value" spec sets); Defaults supplies
// the per-assumption parameter values used when a spec omits them.
type Builder struct {
	Name    string   // canonical name: the paper's x-axis label ("CC", "CC/LC", "Shr")
	Aliases []string // accepted alternate spellings (case-insensitive, like Name)
	Key     string   // primary parameter key ("ratio", "density", "unused", "shrink", "shared")
	Doc     string   // one-line parameter documentation
	// Defaults returns the parameter map for the given assumption (Table 2's
	// pessimistic/realistic/optimistic columns; single-point techniques
	// ignore the assumption).
	Defaults func(a Assumption) map[string]float64
	// ParseParams validates p and builds the technique. Unknown keys and
	// out-of-domain values fail with robust.ErrDomain.
	ParseParams func(p map[string]float64) (Technique, error)

	// Table 2's columns beyond the parameter values: the "Technique"
	// title, the qualitative ratings, and param, which renders the
	// parameter text from the primary value. param is nil on rows Table 2
	// does not list (Shr, ShrPriv).
	title                          string
	effectiveness, rng, complexity Rating
	param                          func(v float64) string
}

// table2 returns b carrying its Table 2 row.
func (b Builder) table2(title string, eff, rng, cplx Rating, param func(v float64) string) Builder {
	b.title, b.effectiveness, b.rng, b.complexity, b.param = title, eff, rng, cplx, param
	return b
}

// Table 2's parameter texts, rendered from a row's primary value.
func compr(v float64) string      { return fmt.Sprintf("%gx compr.", v) }
func density(v float64) string    { return fmt.Sprintf("%gx density", v) }
func unusedData(v float64) string { return fmt.Sprintf("%.0f%% unused data", 100*v) }
func lessArea(v float64) string   { return fmt.Sprintf("%gx less area", v) }
func sramLayer(float64) string    { return "3D SRAM layer" }

// specErrf builds a robust.ErrDomain-classified construction error.
func specErrf(format string, a ...any) error {
	return fmt.Errorf("technique: "+format+": %w", append(a, robust.ErrDomain)...)
}

// oneParam extracts the single allowed parameter key from p, falling back
// to def when absent. Any other key is a domain error.
func oneParam(name, key string, p map[string]float64, def float64) (float64, error) {
	v := def
	for k, kv := range p {
		if k != key {
			return 0, specErrf("%s: unknown parameter %q (want %q)", name, k, key)
		}
		v = kv
	}
	return v, nil
}

// splitCoeffs separates optional coefficient keys (thermal/energy side
// effects: "resist", "refresh", "eacc", "ebit") from the remaining
// parameters. Coefficients must be positive when present; absent keys stay
// 0 in the returned map, which the technique's Modify resolves to the
// catalog default.
func splitCoeffs(name string, p map[string]float64, keys []string) (coeffs, rest map[string]float64, err error) {
	coeffs = make(map[string]float64, len(keys))
	rest = make(map[string]float64, len(p))
	for k, v := range p {
		matched := false
		for _, ck := range keys {
			if k == ck {
				matched = true
				break
			}
		}
		if !matched {
			rest[k] = v
			continue
		}
		if !(v > 0) {
			return nil, nil, specErrf("%s: %s must be positive, got %g", name, k, v)
		}
		coeffs[k] = v
	}
	return coeffs, rest, nil
}

// ratioBuilder covers the ≥1 multiplicative techniques (CC, DRAM, 3D,
// SmCo, LC, CC/LC). coeffKeys lists the optional thermal/energy
// coefficient keys the family accepts beyond the primary parameter; mk
// receives them as a map where a missing key is 0 ("use the catalog
// default").
func ratioBuilder(name string, aliases []string, key, doc string, defs [3]float64, coeffKeys []string, mk func(v float64, c map[string]float64) Technique) Builder {
	return Builder{
		Name: name, Aliases: aliases, Key: key, Doc: doc,
		Defaults: func(a Assumption) map[string]float64 {
			return map[string]float64{key: pick(a, defs)}
		},
		ParseParams: func(p map[string]float64) (Technique, error) {
			coeffs, rest, err := splitCoeffs(name, p, coeffKeys)
			if err != nil {
				return nil, err
			}
			v, err := oneParam(name, key, rest, defs[Realistic])
			if err != nil {
				return nil, err
			}
			if !(v >= 1) {
				return nil, specErrf("%s: %s must be ≥ 1, got %g", name, key, v)
			}
			return mk(v, coeffs), nil
		},
	}
}

// fracBuilder covers the [0,1) fraction techniques (Fltr, Sect, SmCl, Shr, ShrPriv).
func fracBuilder(name string, aliases []string, key, doc string, defs [3]float64, mk func(v float64) Technique) Builder {
	return Builder{
		Name: name, Aliases: aliases, Key: key, Doc: doc,
		Defaults: func(a Assumption) map[string]float64 {
			return map[string]float64{key: pick(a, defs)}
		},
		ParseParams: func(p map[string]float64) (Technique, error) {
			v, err := oneParam(name, key, p, defs[Realistic])
			if err != nil {
				return nil, err
			}
			if v < 0 || v >= 1 {
				return nil, specErrf("%s: %s must be in [0,1), got %g", name, key, v)
			}
			return mk(v), nil
		},
	}
}

// Builders is the by-name construction registry: every technique the model
// knows, keyed by its canonical catalog name. The first nine rows are the
// paper's Table 2, parameters (pessimistic, realistic, optimistic) and
// ratings (effectiveness, range, complexity) included, in Fig 15's x-axis
// order; Catalog reads them. Shr/ShrPriv extend it with the §6.3
// data-sharing models.
var Builders = []Builder{
	ratioBuilder("CC", nil, "ratio", "cache compression ratio (effective capacity multiplier); optional eacc: energy per cache access vs SRAM",
		[3]float64{1.25, 2.0, 3.5}, []string{"eacc"},
		func(v float64, c map[string]float64) Technique {
			return CacheCompression{Ratio: v, AccessEnergy: c["eacc"]}
		}).table2("Cache Compress", Medium, Low, Medium, compr),
	ratioBuilder("DRAM", nil, "density", "DRAM L2 storage density vs SRAM; optional refresh: cache power multiplier, eacc: energy per access vs SRAM",
		[3]float64{4, 8, 16}, []string{"refresh", "eacc"},
		func(v float64, c map[string]float64) Technique {
			return DRAMCache{Density: v, RefreshPower: c["refresh"], AccessEnergy: c["eacc"]}
		}).table2("DRAM Cache", High, Medium, Low, density),
	ratioBuilder("3D", nil, "density", "3D-stacked cache die density vs SRAM (1 = SRAM layer); optional resist: thermal resistance multiplier",
		[3]float64{1, 1, 1}, []string{"resist"},
		func(v float64, c map[string]float64) Technique {
			return ThreeDCache{LayerDensity: v, Resist: c["resist"]}
		}).table2("3D-stacked Cache", Medium, Low, High, sramLayer),
	fracBuilder("Fltr", nil, "unused", "fraction of cached data never referenced, filtered out",
		[3]float64{0.10, 0.40, 0.80}, func(v float64) Technique { return UnusedDataFilter{Unused: v} }).
		table2("Unused Data Filter", Medium, Medium, Medium, unusedData),
	ratioBuilder("SmCo", nil, "shrink", "core shrink factor k (core area becomes 1/k CEA)",
		[3]float64{9, 40, 80}, nil,
		func(v float64, _ map[string]float64) Technique { return SmallerCores{AreaFraction: 1 / v} }).
		table2("Smaller Cores", Low, Low, Low, lessArea),
	ratioBuilder("LC", nil, "ratio", "link compression ratio (effective bandwidth multiplier); optional ebit: energy per off-chip bit vs baseline",
		[3]float64{1.25, 2.0, 3.5}, []string{"ebit"},
		func(v float64, c map[string]float64) Technique {
			return LinkCompression{Ratio: v, BitEnergy: c["ebit"]}
		}).table2("Link Compress", High, Medium, Low, compr),
	fracBuilder("Sect", nil, "unused", "fraction of fetched line data never referenced, not fetched",
		[3]float64{0.10, 0.40, 0.80}, func(v float64) Technique { return SectoredCache{Unused: v} }).
		table2("Sectored Caches", Medium, High, Medium, unusedData),
	fracBuilder("SmCl", nil, "unused", "fraction of line data never referenced, neither fetched nor stored",
		[3]float64{0.10, 0.40, 0.80}, func(v float64) Technique { return SmallCacheLines{Unused: v} }).
		table2("Smaller Cache Lines", High, High, Medium, unusedData),
	ratioBuilder("CC/LC", []string{"CCLC"}, "ratio", "compression ratio applied to both cache and link; optional eacc/ebit energy coefficients",
		[3]float64{1.25, 2.0, 3.5}, []string{"eacc", "ebit"},
		func(v float64, c map[string]float64) Technique {
			return CacheLinkCompression{Ratio: v, AccessEnergy: c["eacc"], BitEnergy: c["ebit"]}
		}).table2("Cache+Link Compress", High, High, Low, compr),
	fracBuilder("Shr", nil, "shared", "fraction of cached data shared by all threads (shared L2)",
		[3]float64{0.4, 0.4, 0.4}, func(v float64) Technique { return DataSharing{SharedFrac: v} }),
	fracBuilder("ShrPriv", []string{"Shr(priv)"}, "shared", "shared data fraction with private, replicating L2s",
		[3]float64{0.4, 0.4, 0.4}, func(v float64) Technique { return DataSharingPrivate{SharedFrac: v} }),
}

// BuilderByName resolves a canonical name or alias, case-insensitively.
func BuilderByName(name string) (Builder, bool) {
	for _, b := range Builders {
		if strings.EqualFold(b.Name, name) {
			return b, true
		}
		for _, al := range b.Aliases {
			if strings.EqualFold(al, name) {
				return b, true
			}
		}
	}
	return Builder{}, false
}

// BuilderNames lists the canonical names in registry order (for error
// messages and documentation).
func BuilderNames() []string {
	out := make([]string, len(Builders))
	for i, b := range Builders {
		out[i] = b.Name
	}
	return out
}

// Build constructs one technique from its spec. Unknown names and invalid
// parameters fail with errors wrapping robust.ErrDomain.
func Build(sp Spec) (Technique, error) {
	b, ok := BuilderByName(sp.Name)
	if !ok {
		return nil, specErrf("unknown technique %q (want one of %s)",
			sp.Name, strings.Join(BuilderNames(), ", "))
	}
	return b.ParseParams(sp.Params)
}

// BuildDefault constructs the named technique with its Table 2 parameters
// under the given assumption.
func BuildDefault(name string, a Assumption) (Technique, error) {
	b, ok := BuilderByName(name)
	if !ok {
		return nil, specErrf("unknown technique %q (want one of %s)",
			name, strings.Join(BuilderNames(), ", "))
	}
	return b.ParseParams(b.Defaults(a))
}

// BuildStack constructs a Stack from specs; an empty list is BASE.
func BuildStack(specs []Spec) (Stack, error) {
	ts := make([]Technique, 0, len(specs))
	for i, sp := range specs {
		t, err := Build(sp)
		if err != nil {
			return Stack{}, fmt.Errorf("stack[%d]: %w", i, err)
		}
		ts = append(ts, t)
	}
	return Combine(ts...), nil
}
