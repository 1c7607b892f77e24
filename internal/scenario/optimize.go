package scenario

import (
	"bytes"
	"encoding/json"
	"strings"

	"repro/internal/power"
	"repro/internal/scaling"
	"repro/internal/technique"
)

// Objective names for OptimizeSpec. Cores maximizes the whole-core reading
// of the solved design point; Exact maximizes Eq. 7's fractional solution
// (useful when two stacks tie on whole cores).
const (
	ObjectiveCores = "cores"
	ObjectiveExact = "exact"
)

// MaxCatalog bounds the catalog: the optimizer searches its power set, so
// the cap keeps the search space (2^n stacks) explicitly bounded rather
// than accidentally exponential.
const MaxCatalog = 12

// OptimizeSpec is one inverse design-space query: given a chip area (N2),
// a wall envelope set, and a catalog of candidate techniques with costs,
// find the technique stack that maximizes the objective, and the
// cores-vs-cost Pareto frontier. The zero value of every optional field
// means "the paper's default", mirroring Spec.
type OptimizeSpec struct {
	// ID identifies the query in reports and logs. Required.
	ID string `json:"id"`
	// Title is the human heading; defaults to ID.
	Title string `json:"title,omitempty"`
	// Description documents intent.
	Description string `json:"description,omitempty"`

	// Baseline is the reference allocation; nil means the paper's 8/8.
	Baseline *Baseline `json:"baseline,omitempty"`
	// Alpha is the workload's power-law exponent; 0 means the paper's 0.5.
	Alpha float64 `json:"alpha,omitempty"`
	// N2 is the chip area in CEAs the design must fit. Required.
	N2 float64 `json:"n2"`
	// Budget is the legacy single-bandwidth envelope; Envelopes the
	// multi-wall set. Same exclusivity and canonicalization as Spec.
	Budget    Budget     `json:"budget,omitempty"`
	Envelopes []Envelope `json:"envelopes,omitempty"`

	// Objective is "cores" (default) or "exact".
	Objective string `json:"objective,omitempty"`
	// Catalog lists the candidate techniques the optimizer may combine.
	// Empty means only the BASE design is evaluated.
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// MaxTechniques bounds the stack size; 0 means unlimited.
	MaxTechniques int `json:"max_techniques,omitempty"`
	// MaxCost bounds a stack's summed cost; 0 means unlimited.
	MaxCost float64 `json:"max_cost,omitempty"`
	// Split is accepted and ignored: each design's S=C/P split is an
	// output of its wall solve, not a swept input. normalize zeroes it, so
	// it never changes the canonical form or a fingerprint.
	Split SplitRange `json:"split,omitempty"`
}

// CatalogEntry is one candidate technique with its cost and compatibility
// group.
type CatalogEntry struct {
	// Name is the registry name ("CC", "DRAM", "3D", ...). Required.
	Name string `json:"name"`
	// Params parameterize the technique exactly as in Case stacks.
	Params map[string]float64 `json:"params,omitempty"`
	// Cost is the entry's area/engineering cost in the frontier's cost
	// axis; 0 is a free technique.
	Cost float64 `json:"cost,omitempty"`
	// Group is the exclusion group: at most one catalog entry per group
	// appears in any candidate stack. Empty means the technique family's
	// canonical name, so two DRAM variants (or two CC ratios) never stack.
	Group string `json:"group,omitempty"`
}

// SplitRange is the shape of OptimizeSpec.Split, which is accepted and
// ignored so that bodies still carrying a split range parse.
type SplitRange struct {
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Points int     `json:"points,omitempty"`
}

// ObjectiveResolved returns the canonical objective name.
func (osp *OptimizeSpec) ObjectiveResolved() string {
	if canonicalKind(osp.Objective) == ObjectiveExact {
		return ObjectiveExact
	}
	return ObjectiveCores
}

// BaselineConfig resolves the reference allocation.
func (osp *OptimizeSpec) BaselineConfig() power.Config {
	if osp.Baseline == nil {
		return power.Baseline()
	}
	return power.Config{P: osp.Baseline.P, C: osp.Baseline.C}
}

// AlphaResolved resolves the workload exponent.
func (osp *OptimizeSpec) AlphaResolved() float64 {
	if osp.Alpha == 0 {
		return power.AlphaDefault
	}
	return osp.Alpha
}

// Constraint resolves the query's wall set, reusing Spec's budget/envelope
// semantics (so both spellings and all three wall kinds behave identically
// to forward evaluation).
func (osp *OptimizeSpec) Constraint() scaling.Constraint {
	sp := Spec{Budget: osp.Budget, Envelopes: osp.Envelopes}
	return sp.constraintFor(Case{})
}

// Groups returns the entry's exclusion-group set: the explicit Group or
// the family's canonical registry name, plus implied groups for dual
// techniques — CC/LC compresses both the cache and the link, so it always
// occupies the CC and LC groups too and can never stack with either.
func (e CatalogEntry) Groups() []string {
	primary := strings.TrimSpace(e.Group)
	canonical := e.Name
	if b, ok := technique.BuilderByName(e.Name); ok {
		canonical = b.Name
	}
	if primary == "" {
		primary = canonical
	}
	if canonical == "CC/LC" {
		return []string{primary, "CC", "LC"}
	}
	return []string{primary}
}

// Spec converts the entry into its technique.Spec.
func (e CatalogEntry) Spec() technique.Spec {
	return technique.Spec{Name: e.Name, Params: e.Params}
}

// Validate checks the query's structure with path-addressed errors, and
// that every catalog entry builds.
func (osp *OptimizeSpec) Validate() error {
	if strings.TrimSpace(osp.ID) == "" {
		return errf("optimize spec needs an id")
	}
	if !(osp.N2 > 0) {
		return errf("%s.n2: chip area must be positive, got %g", osp.ID, osp.N2)
	}
	if osp.Baseline != nil && (!(osp.Baseline.P > 0) || osp.Baseline.C < 0) {
		return errf("%s.baseline: needs p > 0 and c ≥ 0, got p=%g c=%g", osp.ID, osp.Baseline.P, osp.Baseline.C)
	}
	if osp.Alpha < 0 {
		return errf("%s.alpha: must be non-negative, got %g", osp.ID, osp.Alpha)
	}
	if osp.Budget.Envelope < 0 {
		return errf("%s.budget.envelope: must be non-negative, got %g", osp.ID, osp.Budget.Envelope)
	}
	if len(osp.Envelopes) > 0 {
		if osp.Budget != (Budget{}) {
			return errf("%s.envelopes: mutually exclusive with the legacy budget field", osp.ID)
		}
		if err := validateEnvelopeList(osp.ID+".envelopes", osp.Envelopes); err != nil {
			return err
		}
	}
	switch canonicalKind(osp.Objective) {
	case "", ObjectiveCores, ObjectiveExact:
	default:
		return errf("%s.objective: unknown objective %q (want cores or exact)", osp.ID, osp.Objective)
	}
	if len(osp.Catalog) > MaxCatalog {
		return errf("%s.catalog: at most %d entries (the optimizer enumerates the power set), got %d", osp.ID, MaxCatalog, len(osp.Catalog))
	}
	for i, e := range osp.Catalog {
		if _, err := technique.Build(e.Spec()); err != nil {
			return errf("%s.catalog[%d] (%s): %v", osp.ID, i, e.Name, err)
		}
		if e.Cost < 0 {
			return errf("%s.catalog[%d] (%s): cost must be non-negative, got %g", osp.ID, i, e.Name, e.Cost)
		}
	}
	if osp.MaxTechniques < 0 {
		return errf("%s.max_techniques: must be non-negative, got %d", osp.ID, osp.MaxTechniques)
	}
	if osp.MaxCost < 0 {
		return errf("%s.max_cost: must be non-negative, got %g", osp.ID, osp.MaxCost)
	}
	return nil
}

// normalize canonicalizes the query in place, mirroring Spec.normalize:
// envelope kinds fold to lower case, a lone pure-bandwidth envelope folds
// into the budget alias, the objective folds to its canonical name, and
// the ignored split is zeroed.
func (osp *OptimizeSpec) normalize() {
	osp.Split = SplitRange{}
	if len(osp.Envelopes) > 0 {
		env := canonicalEnvelopes(osp.Envelopes)
		osp.Envelopes = env
		if len(env) == 1 && osp.Budget == (Budget{}) &&
			env[0] == (Envelope{Kind: scaling.KindBandwidth, Limit: env[0].Limit, Compound: env[0].Compound}) {
			osp.Budget = Budget{Envelope: env[0].Limit, Compound: env[0].Compound}
			osp.Envelopes = nil
		}
	}
	osp.Objective = canonicalKind(osp.Objective)
}

// ParseOptimizeSpec decodes and validates one JSON optimize query; strict
// like ParseSpec (unknown fields and trailing data rejected).
func ParseOptimizeSpec(data []byte) (*OptimizeSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var osp OptimizeSpec
	if err := dec.Decode(&osp); err != nil {
		return nil, decodeError("optimize spec", osp.ID, err)
	}
	if trailingData(dec, data) {
		return nil, errf("optimize spec %s: trailing data after JSON object", osp.ID)
	}
	osp.normalize()
	if err := osp.Validate(); err != nil {
		return nil, err
	}
	return &osp, nil
}

// optimizeSpecJSON is OptimizeSpec stripped of its methods, for canonical
// marshaling.
type optimizeSpecJSON OptimizeSpec

// MarshalJSON renders the canonical form; Marshal→Parse→Marshal is a fixed
// point, so the serve-tier fingerprint cannot split across equivalent
// spellings.
func (osp OptimizeSpec) MarshalJSON() ([]byte, error) {
	cp := osp
	cp.normalize()
	return json.Marshal(optimizeSpecJSON(cp))
}
