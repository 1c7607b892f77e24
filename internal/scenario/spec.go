// Package scenario turns the paper's figure drivers into data: a Spec is a
// declarative, JSON-round-trippable description of a model query — solver
// constants, a technique stack named via the technique registry, a sweep
// axis, and a traffic-budget envelope — and Engine evaluates any Spec
// through a memoized solver cache. The exp figure drivers are thin Spec
// definitions over this engine, and `bandwall eval` accepts user-written
// Specs, so arbitrary what-if queries run through exactly the code path
// the reproduced figures use.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/power"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/technique"
)

// Spec is one declarative scenario: which solver, which budget envelope,
// which chip-size axis, and which technique-stack cases to evaluate on it.
// The zero value of every optional field means "the paper's default".
type Spec struct {
	// ID identifies the scenario in reports and checkpoints (like an
	// experiment ID). Required.
	ID string `json:"id"`
	// Title is the human heading; defaults to ID.
	Title string `json:"title,omitempty"`
	// Description documents intent; surfaced by `bandwall list`-style output.
	Description string `json:"description,omitempty"`
	// Notes are carried verbatim into the rendered report.
	Notes []string `json:"notes,omitempty"`

	// Baseline is the reference allocation (P1 cores, C1 cache CEAs).
	// Nil means the paper's balanced 8-core/8-CEA baseline.
	Baseline *Baseline `json:"baseline,omitempty"`
	// Alpha is the workload's power-law exponent; 0 means the paper's 0.5.
	Alpha float64 `json:"alpha,omitempty"`
	// Budget is the traffic envelope all cases inherit. It is the legacy
	// single-bandwidth-wall alias: specs may instead set Envelopes, and a
	// pure single-bandwidth Envelopes entry canonicalizes to this field
	// (so either spelling produces one canonical fingerprint). Setting
	// both is an error.
	Budget Budget `json:"budget,omitempty"`
	// Envelopes is the multi-wall constraint set: each entry is one wall
	// (bandwidth, thermal, energy), all of which must hold. Order matters
	// only for tie-breaking the reported binding wall.
	Envelopes []Envelope `json:"envelopes,omitempty"`
	// Axis selects the chip sizes to sweep. Exactly one axis kind must be set.
	Axis Axis `json:"axis"`
	// Cases are the stacks to evaluate at every axis point.
	Cases []Case `json:"cases"`
}

// Baseline mirrors power.Config for JSON.
type Baseline struct {
	P float64 `json:"p"` // baseline cores
	C float64 `json:"c"` // baseline cache CEAs
}

// Budget is the bandwidth envelope: traffic may grow to Envelope × the
// baseline's. With Compound set, an axis point at generation index g gets
// Envelope^g instead — §5.1's per-generation envelope growth.
type Budget struct {
	Envelope float64 `json:"envelope,omitempty"` // 0 means the constant envelope (1.0)
	Compound bool    `json:"compound,omitempty"`
}

// Envelope is one wall of a multi-wall constraint set. Kind selects the
// model; the remaining fields parameterize it and default to the wall's
// canonical values when 0.
type Envelope struct {
	// Kind is "bandwidth", "thermal", or "energy" (case-insensitive;
	// canonicalized to lower case).
	Kind string `json:"kind"`
	// Limit is the wall's ceiling relative to the baseline (traffic
	// multiple, power-density multiple, or energy-per-work multiple).
	// 0 means 1.
	Limit float64 `json:"limit,omitempty"`
	// Compound grows the limit as Limit^gen per generation index.
	Compound bool `json:"compound,omitempty"`
	// Growth multiplies thermal/energy usage per generation (the
	// end-of-Dennard density growth that lets a thermal wall overtake
	// the bandwidth wall mid-sweep). 0 means 1. Bandwidth walls reject
	// it — express envelope growth via Compound instead.
	Growth float64 `json:"growth,omitempty"`
	// CachePower is the thermal wall's κ: per-CEA cache power relative
	// to per-CEA core power. 0 means scaling.DefaultThermalCachePower.
	CachePower float64 `json:"cache_power,omitempty"`
	// AccessShare is the energy wall's w: the baseline energy share of
	// cache accesses. 0 means scaling.DefaultEnergyAccessShare.
	AccessShare float64 `json:"access_share,omitempty"`
}

// wall resolves one envelope entry into its scaling.Wall.
func (e Envelope) wall() scaling.Wall {
	limit := e.Limit
	if limit == 0 {
		limit = 1
	}
	switch canonicalKind(e.Kind) {
	case scaling.KindThermal:
		return scaling.ThermalWall{Limit: limit, Compound: e.Compound, Growth: e.Growth, CachePower: e.CachePower}
	case scaling.KindEnergy:
		return scaling.EnergyWall{Limit: limit, Compound: e.Compound, Growth: e.Growth, AccessShare: e.AccessShare}
	default:
		return scaling.BandwidthWall{Budget: limit, Compound: e.Compound}
	}
}

// Axis is the sweep's x-axis. Exactly one field may be set:
//
//   - N2: explicit chip sizes in CEAs (Figs 4–12 use the single point 32);
//   - Ratios: scaling ratios vs the baseline area (Fig 3's 1x..128x);
//   - Generations: that many area-doubling generations (Figs 15–17's 2x..16x).
type Axis struct {
	N2          []float64 `json:"n2,omitempty"`
	Ratios      []float64 `json:"ratios,omitempty"`
	Generations int       `json:"generations,omitempty"`
}

// Case is one configuration evaluated across the axis: a technique stack
// plus optional per-case overrides of the spec's solver constants.
type Case struct {
	// Label names the row; defaults to the stack's label.
	Label string `json:"label,omitempty"`
	// Stack lists the techniques by registry name. Empty means BASE.
	Stack []technique.Spec `json:"stack,omitempty"`
	// Assumption, when set ("pessimistic", "realistic", "optimistic"),
	// fills each stack entry's missing parameters from Table 2's column for
	// that assumption instead of the realistic default.
	Assumption string `json:"assumption,omitempty"`
	// Alpha overrides the spec's α for this case (Fig 17's sensitivity rows).
	Alpha float64 `json:"alpha,omitempty"`
	// Budget overrides the spec's envelope for this case; the spec's
	// Compound flag still applies.
	Budget float64 `json:"budget,omitempty"`
	// Envelopes overrides spec-level walls for this case, by kind: an
	// entry replaces the spec wall of the same kind, or adds a new wall
	// when the spec has none of that kind (so one case can tighten a
	// single wall while inheriting the rest). Mutually exclusive with the
	// legacy Budget override.
	Envelopes []Envelope `json:"envelopes,omitempty"`
	// ValueKey, when non-empty, records the solved core count in the
	// outcome's Values: under the key itself for a single-point axis, or
	// under GenKey(ValueKey, ratio) per axis point otherwise.
	ValueKey string `json:"value_key,omitempty"`
	// Scenario tags the paper's pessimistic/realistic/optimistic marker in
	// rendered tables.
	Scenario string `json:"scenario,omitempty"`
}

// errf builds a robust.ErrDomain-classified spec error: a bad spec is a
// permanent input problem, never retried.
func errf(format string, a ...any) error {
	return fmt.Errorf("scenario: "+format+": %w", append(a, robust.ErrDomain)...)
}

// Validate checks the spec's structure: ID present, exactly one axis kind,
// positive sizes, at least one case, buildable stacks, known assumptions.
func (sp *Spec) Validate() error {
	if err := sp.validateStructure(); err != nil {
		return err
	}
	for i, c := range sp.Cases {
		if _, err := c.BuildStack(); err != nil {
			return fmt.Errorf("scenario: %s: case %d (%s): %w", sp.ID, i, c.Label, err)
		}
	}
	return nil
}

// validateStructure is Validate without building the stacks — the engine
// uses it so each stack is built exactly once per evaluation. Errors name
// the offending JSON path relative to the spec root, e.g.
// "fig02.envelopes[1]: unknown kind".
func (sp *Spec) validateStructure() error {
	if strings.TrimSpace(sp.ID) == "" {
		return errf("spec needs an id")
	}
	axes := 0
	if len(sp.Axis.N2) > 0 {
		axes++
		for i, n2 := range sp.Axis.N2 {
			if !(n2 > 0) {
				return errf("%s.axis.n2[%d]: chip sizes must be positive, got %g", sp.ID, i, n2)
			}
		}
	}
	if len(sp.Axis.Ratios) > 0 {
		axes++
		for i, r := range sp.Axis.Ratios {
			if !(r > 0) {
				return errf("%s.axis.ratios[%d]: scaling ratios must be positive, got %g", sp.ID, i, r)
			}
		}
	}
	if sp.Axis.Generations != 0 {
		axes++
		if sp.Axis.Generations < 0 {
			return errf("%s.axis.generations: must be positive, got %d", sp.ID, sp.Axis.Generations)
		}
	}
	if axes != 1 {
		return errf("%s.axis: exactly one of axis.n2, axis.ratios, axis.generations must be set", sp.ID)
	}
	if sp.Baseline != nil && (!(sp.Baseline.P > 0) || sp.Baseline.C < 0) {
		return errf("%s.baseline: needs p > 0 and c ≥ 0, got p=%g c=%g", sp.ID, sp.Baseline.P, sp.Baseline.C)
	}
	if sp.Alpha < 0 {
		return errf("%s.alpha: must be non-negative, got %g", sp.ID, sp.Alpha)
	}
	if sp.Budget.Envelope < 0 {
		return errf("%s.budget.envelope: must be non-negative, got %g", sp.ID, sp.Budget.Envelope)
	}
	if err := sp.validateEnvelopes(); err != nil {
		return err
	}
	if len(sp.Cases) == 0 {
		return errf("%s.cases: spec needs at least one case", sp.ID)
	}
	for i, c := range sp.Cases {
		if c.Alpha < 0 {
			return errf("%s.cases[%d].alpha: must be non-negative, got %g", sp.ID, i, c.Alpha)
		}
		if c.Budget < 0 {
			return errf("%s.cases[%d].budget: must be non-negative, got %g", sp.ID, i, c.Budget)
		}
		if len(c.Envelopes) > 0 {
			if c.Budget != 0 {
				return errf("%s.cases[%d].envelopes: mutually exclusive with the legacy budget override", sp.ID, i)
			}
			if err := validateEnvelopeList(fmt.Sprintf("%s.cases[%d].envelopes", sp.ID, i), c.Envelopes); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateEnvelopes checks the multi-wall constraint set. Error messages
// carry the envelope's JSON path and kind.
func (sp *Spec) validateEnvelopes() error {
	if len(sp.Envelopes) == 0 {
		return nil
	}
	if sp.Budget != (Budget{}) {
		return errf("%s.envelopes: mutually exclusive with the legacy budget field (budget.envelope is the single-bandwidth alias)", sp.ID)
	}
	return validateEnvelopeList(sp.ID+".envelopes", sp.Envelopes)
}

// validateEnvelopeList checks one wall list (spec- or case-level). path is
// the JSON location error messages carry, e.g. "fig02.envelopes" or
// "opt.cases[3].envelopes".
func validateEnvelopeList(path string, envs []Envelope) error {
	seen := map[string]bool{}
	for i, e := range envs {
		kind := canonicalKind(e.Kind)
		switch kind {
		case scaling.KindBandwidth, scaling.KindThermal, scaling.KindEnergy:
		default:
			return errf("%s[%d]: unknown kind %q (want bandwidth, thermal, or energy)", path, i, e.Kind)
		}
		if seen[kind] {
			return errf("%s[%d]: duplicate kind %q", path, i, kind)
		}
		seen[kind] = true
		if e.Limit < 0 {
			return errf("%s[%d] (%s): limit must be non-negative, got %g", path, i, kind, e.Limit)
		}
		if e.Growth < 0 {
			return errf("%s[%d] (%s): growth must be non-negative, got %g", path, i, kind, e.Growth)
		}
		if kind == scaling.KindBandwidth && e.Growth != 0 {
			return errf("%s[%d] (bandwidth): growth applies only to thermal and energy walls (use compound for envelope growth)", path, i)
		}
		if e.CachePower != 0 && kind != scaling.KindThermal {
			return errf("%s[%d] (%s): cache_power applies only to thermal walls", path, i, kind)
		}
		if e.CachePower < 0 || e.CachePower >= 1 {
			if e.CachePower != 0 {
				return errf("%s[%d] (thermal): cache_power must be in (0,1), got %g", path, i, e.CachePower)
			}
		}
		if e.AccessShare != 0 && kind != scaling.KindEnergy {
			return errf("%s[%d] (%s): access_share applies only to energy walls", path, i, kind)
		}
		if e.AccessShare < 0 || e.AccessShare >= 1 {
			if e.AccessShare != 0 {
				return errf("%s[%d] (energy): access_share must be in (0,1), got %g", path, i, e.AccessShare)
			}
		}
	}
	return nil
}

// canonicalKind lower-cases and trims an envelope kind.
func canonicalKind(k string) string {
	return strings.ToLower(strings.TrimSpace(k))
}

// baseline resolves the reference allocation.
func (sp *Spec) baseline() power.Config {
	if sp.Baseline == nil {
		return power.Baseline()
	}
	return power.Config{P: sp.Baseline.P, C: sp.Baseline.C}
}

// alpha resolves the spec-level workload exponent.
func (sp *Spec) alpha() float64 {
	if sp.Alpha == 0 {
		return power.AlphaDefault
	}
	return sp.Alpha
}

// envelope resolves the spec-level budget envelope.
func (sp *Spec) envelope() float64 {
	if sp.Budget.Envelope == 0 {
		return 1
	}
	return sp.Budget.Envelope
}

// normalize canonicalizes the constraint set in place: envelope kinds
// fold to lower case, and a lone pure-bandwidth envelope (no growth or
// coefficient overrides) folds into the legacy budget alias. ParseSpec
// and the canonical marshal both apply it, so equivalent spellings of a
// single-bandwidth spec collapse onto one serialized form — and therefore
// one serve-tier fingerprint and one set of cache keys.
func (sp *Spec) normalize() {
	if len(sp.Envelopes) > 0 {
		env := canonicalEnvelopes(sp.Envelopes)
		sp.Envelopes = env
		if len(env) == 1 && sp.Budget == (Budget{}) &&
			env[0] == (Envelope{Kind: scaling.KindBandwidth, Limit: env[0].Limit, Compound: env[0].Compound}) {
			sp.Budget = Budget{Envelope: env[0].Limit, Compound: env[0].Compound}
			sp.Envelopes = nil
		}
	}
	// Case-level override kinds canonicalize too. Copy-on-write: the Cases
	// backing array is shared with the caller's Spec during MarshalJSON, and
	// specs without case envelopes must serialize byte-identically to before
	// the field existed (canonical-fingerprint stability).
	var cases []Case
	for i, c := range sp.Cases {
		if len(c.Envelopes) == 0 {
			continue
		}
		env := canonicalEnvelopes(c.Envelopes)
		if cases == nil {
			cases = append([]Case(nil), sp.Cases...)
		}
		cases[i].Envelopes = env
	}
	if cases != nil {
		sp.Cases = cases
	}
}

// canonicalEnvelopes returns a copy of envs with kinds lower-cased.
func canonicalEnvelopes(envs []Envelope) []Envelope {
	out := make([]Envelope, len(envs))
	copy(out, envs)
	for i := range out {
		out[i].Kind = canonicalKind(out[i].Kind)
	}
	return out
}

// constraint resolves the wall set for one case. caseBudget > 0 is the
// legacy per-case override: it replaces the bandwidth wall's limit
// (adding a bandwidth wall when the envelope set lacks one); the other
// walls are untouched.
func (sp *Spec) constraint(caseBudget float64) scaling.Constraint {
	if len(sp.Envelopes) == 0 {
		b := caseBudget
		if b == 0 {
			b = sp.envelope()
		}
		return scaling.Bandwidth(b, sp.Budget.Compound)
	}
	walls := make([]scaling.Wall, 0, len(sp.Envelopes)+1)
	haveBW := false
	for _, e := range sp.Envelopes {
		w := e.wall()
		if bw, ok := w.(scaling.BandwidthWall); ok {
			haveBW = true
			if caseBudget > 0 {
				bw.Budget = caseBudget
				w = bw
			}
		}
		walls = append(walls, w)
	}
	if caseBudget > 0 && !haveBW {
		walls = append(walls, scaling.BandwidthWall{Budget: caseBudget})
	}
	return scaling.NewConstraint(walls...)
}

// constraintFor resolves the wall set for one case, applying its Envelopes
// overrides by kind on top of the spec-level walls: a case entry replaces
// the spec wall of the same kind, or joins the set when the spec has none.
// Cases without envelopes fall through to the legacy budget path.
func (sp *Spec) constraintFor(c Case) scaling.Constraint {
	if len(c.Envelopes) == 0 {
		return sp.constraint(c.Budget)
	}
	var walls []scaling.Wall
	if len(sp.Envelopes) == 0 {
		// The implicit spec-level constraint is the single bandwidth wall
		// (paper default envelope 1.0 unless Budget says otherwise).
		walls = []scaling.Wall{scaling.BandwidthWall{Budget: sp.envelope(), Compound: sp.Budget.Compound}}
	} else {
		walls = make([]scaling.Wall, 0, len(sp.Envelopes)+len(c.Envelopes))
		for _, e := range sp.Envelopes {
			walls = append(walls, e.wall())
		}
	}
	for _, e := range c.Envelopes {
		w := e.wall()
		replaced := false
		for i := range walls {
			if walls[i].Kind() == w.Kind() {
				walls[i] = w
				replaced = true
				break
			}
		}
		if !replaced {
			walls = append(walls, w)
		}
	}
	return scaling.NewConstraint(walls...)
}

// axisGens expands the axis into concrete generations relative to the
// baseline area. Explicit N2 points get 1-based indices and the implied
// ratio; the other kinds delegate to the scaling package's constructors so
// indices (and therefore compounding budgets) match the figure drivers.
func (sp *Spec) axisGens(baseN float64) []scaling.Generation {
	switch {
	case len(sp.Axis.N2) > 0:
		out := make([]scaling.Generation, len(sp.Axis.N2))
		for i, n2 := range sp.Axis.N2 {
			out[i] = scaling.Generation{Index: i + 1, Ratio: n2 / baseN, N: n2}
		}
		return out
	case len(sp.Axis.Ratios) > 0:
		return scaling.ScalingRatios(baseN, sp.Axis.Ratios)
	default:
		return scaling.Generations(baseN, sp.Axis.Generations)
	}
}

// ParseAssumption maps a spec string onto Table 2's assumption columns.
func ParseAssumption(s string) (technique.Assumption, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "pessimistic", "pess":
		return technique.Pessimistic, nil
	case "", "realistic", "real":
		return technique.Realistic, nil
	case "optimistic", "opt":
		return technique.Optimistic, nil
	}
	return 0, errf("unknown assumption %q (want pessimistic, realistic, or optimistic)", s)
}

// BuildStack constructs the case's technique stack. With an Assumption set,
// entries without explicit parameters take that assumption's Table 2
// defaults; explicit parameters always win.
func (c Case) BuildStack() (technique.Stack, error) {
	if c.Assumption == "" {
		return technique.BuildStack(c.Stack)
	}
	a, err := ParseAssumption(c.Assumption)
	if err != nil {
		return technique.Stack{}, err
	}
	ts := make([]technique.Technique, 0, len(c.Stack))
	for i, tsp := range c.Stack {
		var t technique.Technique
		if len(tsp.Params) == 0 {
			t, err = technique.BuildDefault(tsp.Name, a)
		} else {
			t, err = technique.Build(tsp)
		}
		if err != nil {
			return technique.Stack{}, fmt.Errorf("stack[%d]: %w", i, err)
		}
		ts = append(ts, t)
	}
	return technique.Combine(ts...), nil
}

// label resolves the case's display label.
func (c Case) label() string {
	if c.Label != "" {
		return c.Label
	}
	st, err := c.BuildStack()
	if err != nil {
		return "(invalid)"
	}
	return st.Label()
}

// ParseSpec decodes and validates one JSON scenario spec. Decoding is
// strict: unknown fields are rejected, so typos in hand-written specs fail
// loudly instead of silently evaluating the default.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, errf("decoding spec: %v", err)
	}
	if trailingData(dec, data) {
		return nil, errf("spec %s: trailing data after JSON object", sp.ID)
	}
	sp.normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// trailingData reports whether anything but JSON whitespace follows the
// value dec has just decoded from data. dec.More alone is not enough: it
// reports false before a closing '}' or ']'.
func trailingData(dec *json.Decoder, data []byte) bool {
	return len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0
}

// specJSON is Spec stripped of its methods, for canonical marshaling.
type specJSON Spec

// MarshalJSON renders the canonical spec form: normalized envelope kinds,
// with a lone pure-bandwidth envelope folded into the legacy budget
// field. ParseSpec normalizes identically, so Marshal→Parse→Marshal is a
// fixed point and the canonical fingerprint cannot split across
// equivalent spellings. Legacy specs (no envelopes) serialize exactly as
// before.
func (sp Spec) MarshalJSON() ([]byte, error) {
	cp := sp
	cp.normalize()
	return json.Marshal(specJSON(cp))
}

// GenKey builds the Values key convention shared with the figure drivers:
// "prefix@RATIOx", e.g. "cores@16x" or "CC:pess@2x".
func GenKey(prefix string, ratio float64) string {
	return prefix + "@" + TrimFloat(ratio) + "x"
}

// TrimFloat renders a float compactly: integers without a decimal point,
// everything else with four decimals (the exp package's convention).
func TrimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}
