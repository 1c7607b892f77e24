package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/bandwall"
	"repro/internal/optimize"
	"repro/internal/scenario"
)

// selfCheck is one pinned paper number.
type selfCheck struct {
	name string
	spec string  // technique stack
	n2   float64 // chip CEAs
	want int     // paper's core count
}

// selfChecks pins every integer the paper reports that the model must
// reproduce exactly.
var selfChecks = []selfCheck{
	{"Fig 2: constant envelope, next gen", "", 32, 11},
	{"Fig 3: constant envelope @16x", "", 256, 24},
	{"Fig 4: cache compression 2x", "CC=2", 32, 13},
	{"Fig 5: DRAM 4x (proportional)", "DRAM=4", 32, 16},
	{"Fig 5: DRAM 8x", "DRAM=8", 32, 18},
	{"Fig 5: DRAM 16x", "DRAM=16", 32, 21},
	{"Fig 6: 3D SRAM die", "3D", 32, 14},
	{"Fig 6: 3D DRAM die 8x", "3D=8", 32, 25},
	{"Fig 6: 3D DRAM die 16x", "3D=16", 32, 32},
	{"Fig 7: filtering 40%", "Fltr=0.4", 32, 12},
	{"Fig 9: link compression 2x", "LC=2", 32, 16},
	{"Fig 10: sectored 40%", "Sect=0.4", 32, 14},
	{"Fig 11: small lines 40%", "SmCl=0.4", 32, 16},
	{"Fig 12: cache+link 2x", "CC/LC=2", 32, 18},
	{"Fig 15: DRAM @16x", "DRAM=8", 256, 47},
	{"Fig 15: LC @16x", "LC=2", 256, 38},
	{"Fig 15: CC @16x", "CC=2", 256, 30},
	{"Fig 16: all combined @16x", "CC/LC=2 + DRAM=8 + 3D + SmCl=0.4", 256, 183},
}

// scenarioChecks drive the scenario engine end-to-end through its JSON
// spec path; each embedded spec mirrors one examples/scenarios query, so a
// schema or engine regression fails here in milliseconds.
var scenarioChecks = []struct {
	name string
	spec string
	key  string // Values key holding the solved core count
	want float64
}{
	{
		"Scenario: stacked CC 2x + LC 2x (Fig 12)",
		`{"id":"stacked","axis":{"n2":[32]},"cases":[{"label":"CC 2x + LC 2x",
		  "stack":[{"name":"CC","params":{"ratio":2}},{"name":"LC","params":{"ratio":2}}],
		  "value_key":"cores"}]}`,
		"cores", 18,
	},
	{
		"Scenario: 1.5x envelope (Fig 2)",
		`{"id":"envelope","budget":{"envelope":1.5},"axis":{"n2":[32]},
		  "cases":[{"label":"BASE","value_key":"cores"}]}`,
		"cores", 13,
	},
	{
		"Scenario: DRAM 8x across 4 gens (Fig 15)",
		`{"id":"gens","axis":{"generations":4},"cases":[{"label":"DRAM 8x",
		  "stack":[{"name":"DRAM","params":{"density":8}}],"value_key":"cores"}]}`,
		"cores@16x", 47,
	},
	{
		"Scenario: thermal wall @16x",
		`{"id":"thermal","axis":{"generations":4},
		  "envelopes":[{"kind":"thermal","limit":3.4,"growth":1.4}],
		  "cases":[{"label":"DRAM + 3D","stack":[{"name":"DRAM","params":{"density":8}},
		  {"name":"3D","params":{"density":1}}],"value_key":"cores"}]}`,
		"cores@16x", 43,
	},
	{
		// An energy wall at limit 1.2 with the default 0.6 access share
		// reduces to an effective traffic budget of 1.5 — it must land on
		// Fig 2's 1.5x-envelope answer.
		"Scenario: energy wall, 1.2x limit",
		`{"id":"energy","axis":{"n2":[32]},
		  "envelopes":[{"kind":"energy","limit":1.2}],
		  "cases":[{"label":"BASE","value_key":"cores"}]}`,
		"cores", 13,
	},
}

// flipCheck pins the multi-wall flagship: the examples/scenarios
// multiwall-sweep spec, whose binding wall flips from bandwidth to thermal
// between the 4x and 8x generations.
const flipSpec = `{"id":"flip","axis":{"generations":4},
  "envelopes":[{"kind":"bandwidth","limit":1},{"kind":"thermal","limit":3.4,"growth":1.4}],
  "cases":[{"label":"DRAM + 3D","stack":[{"name":"DRAM","params":{"density":8}},
  {"name":"3D","params":{"density":1}}]}]}`

// checkFlip evaluates flipSpec and verifies both the solved cores and the
// per-generation binding-wall attribution.
func checkFlip(eng *scenario.Engine, out io.Writer) (failures int, err error) {
	sp, err := scenario.ParseSpec([]byte(flipSpec))
	if err != nil {
		return 0, err
	}
	o, err := eng.Evaluate(context.Background(), sp)
	if err != nil {
		return 0, err
	}
	wantBind := []string{"bandwidth", "bandwidth", "thermal", "thermal"}
	wantCores := []int{26, 36, 44, 43}
	status := "ok"
	for i, pt := range o.PointsFor(0) {
		if pt.Binding != wantBind[i] || pt.Cores != wantCores[i] {
			status = fmt.Sprintf("FAIL (gen %d: %d cores under %s)", i+1, pt.Cores, pt.Binding)
			failures++
			break
		}
	}
	fmt.Fprintf(out, "%-36s bandwidth->thermal @8x ... %s\n", "Scenario: binding-wall flip", status)
	return failures, nil
}

// optimizeCheckSpec mirrors examples/scenarios/optimize-area-budget.json;
// checkOptimize pins its Pareto frontier and best design, so the inverse
// optimizer's answer is release-checked alongside the paper numbers.
const optimizeCheckSpec = `{
  "id": "optimize-area-budget", "n2": 32,
  "envelopes": [
    {"kind": "bandwidth", "limit": 1},
    {"kind": "thermal", "limit": 2.08}
  ],
  "objective": "cores",
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "CC", "params": {"ratio": 2}, "cost": 2},
    {"name": "CC/LC", "params": {"ratio": 2}, "cost": 3},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4},
    {"name": "3D", "params": {"density": 8}, "cost": 6}
  ],
  "max_techniques": 3
}`

// checkOptimize runs the inverse optimizer on the worked example and
// verifies the frontier's (cost, cores, stack, binding) walk, ending on
// the bandwidth-bound Fltr + CC/LC + DRAM design.
func checkOptimize(out io.Writer) (failures int, err error) {
	osp, err := scenario.ParseOptimizeSpec([]byte(optimizeCheckSpec))
	if err != nil {
		return 0, err
	}
	res, err := optimize.New().Search(context.Background(), osp)
	if err != nil {
		return 0, err
	}
	want := []struct {
		cost    float64
		cores   int
		label   string
		binding string
	}{
		{0, 11, "BASE", "bandwidth"},
		{1, 12, "Fltr", "bandwidth"},
		{1.5, 16, "LC", "bandwidth"},
		{2.5, 18, "Fltr + LC", "bandwidth"},
		{4, 21, "Fltr + CC/LC", "bandwidth"},
		{5.5, 24, "LC + DRAM", "bandwidth"},
		{6, 25, "3D", "thermal"},
		{6.5, 26, "Fltr + LC + DRAM", "bandwidth"},
		{7, 27, "CC/LC + DRAM", "bandwidth"},
		{8, 28, "Fltr + CC/LC + DRAM", "bandwidth"},
	}
	status := "ok"
	if len(res.Frontier) != len(want) {
		status = fmt.Sprintf("FAIL (%d frontier points, want %d)", len(res.Frontier), len(want))
		failures++
	} else {
		for i, w := range want {
			g := res.Frontier[i]
			if g.Cost != w.cost || g.Cores != w.cores || g.Label != w.label || g.Binding != w.binding {
				status = fmt.Sprintf("FAIL (frontier[%d]: %s %d cores @ cost %g under %s)", i, g.Label, g.Cores, g.Cost, g.Binding)
				failures++
				break
			}
		}
	}
	fmt.Fprintf(out, "%-36s 10-point frontier, best Fltr + CC/LC + DRAM ... %s\n", "Optimize: area-budget example", status)
	return failures, nil
}

// cmdSelftest verifies the pinned numbers and reports pass/fail — a
// seconds-long release sanity check (the full `go test ./...` covers far
// more, but needs a Go toolchain). Any arguments are scenario spec files
// to parse and validate (CI points this at examples/scenarios/*.json).
func cmdSelftest(args []string, out io.Writer) error {
	s := bandwall.DefaultSolver()
	failures := 0
	for _, c := range selfChecks {
		st, err := bandwall.ParseStack(c.spec)
		if err != nil {
			return err
		}
		got, err := s.MaxCores(st, c.n2, 1)
		if err != nil {
			return err
		}
		status := "ok"
		if got != c.want {
			status = fmt.Sprintf("FAIL (got %d)", got)
			failures++
		}
		fmt.Fprintf(out, "%-36s want %3d cores ... %s\n", c.name, c.want, status)
	}
	// Fig 13 break-evens.
	for _, tc := range []struct {
		cores float64
		want  float64
	}{{16, 0.40}, {32, 0.63}, {64, 0.77}, {128, 0.86}} {
		fsh, err := s.BreakEvenSharing(2*tc.cores, tc.cores, 1)
		if err != nil {
			return err
		}
		status := "ok"
		if diff := fsh - tc.want; diff > 0.015 || diff < -0.015 {
			status = fmt.Sprintf("FAIL (got %.3f)", fsh)
			failures++
		}
		fmt.Fprintf(out, "Fig 13: break-even f_sh @%3g cores    want %.2f ... %s\n", tc.cores, tc.want, status)
	}
	// Scenario engine via the JSON spec path.
	eng := scenario.NewEngine()
	for _, c := range scenarioChecks {
		got, err := evalSpecValue(eng, []byte(c.spec), c.key)
		if err != nil {
			return err
		}
		status := "ok"
		if got != c.want {
			status = fmt.Sprintf("FAIL (got %g)", got)
			failures++
		}
		fmt.Fprintf(out, "%-36s want %3.0f cores ... %s\n", c.name, c.want, status)
	}
	// Multi-wall binding attribution.
	flipFails, err := checkFlip(eng, out)
	if err != nil {
		return err
	}
	failures += flipFails
	// Inverse optimizer: the worked example's pinned frontier.
	optFails, err := checkOptimize(out)
	if err != nil {
		return err
	}
	failures += optFails
	// User-supplied spec files: strict parse + validation only, so this
	// stays a schema sanity check rather than an open-ended evaluation.
	// Files that are not scenario specs are tried as optimize specs, so CI
	// can point this at all of examples/scenarios/*.json.
	for _, path := range args {
		status := "ok"
		data, err := os.ReadFile(path)
		if err != nil {
			status = fmt.Sprintf("FAIL (%v)", err)
		} else if _, specErr := scenario.ParseSpec(data); specErr != nil {
			if _, optErr := scenario.ParseOptimizeSpec(data); optErr != nil {
				status = fmt.Sprintf("FAIL (%v)", specErr)
			}
		}
		if status != "ok" {
			failures++
		}
		fmt.Fprintf(out, "Spec sanity: %-47s ... %s\n", path, status)
	}
	if failures > 0 {
		return fmt.Errorf("selftest: %d checks failed", failures)
	}
	fmt.Fprintf(out, "\nall %d checks pass\n", len(selfChecks)+4+len(scenarioChecks)+2+len(args))
	return nil
}

// evalSpecValue parses and evaluates one embedded spec, returning the
// named entry of its Values map.
func evalSpecValue(eng *scenario.Engine, spec []byte, key string) (float64, error) {
	sp, err := scenario.ParseSpec(spec)
	if err != nil {
		return 0, err
	}
	o, err := eng.Evaluate(context.Background(), sp)
	if err != nil {
		return 0, err
	}
	v, ok := o.Values[key]
	if !ok {
		return 0, fmt.Errorf("selftest: spec %s produced no value %q", sp.ID, key)
	}
	return v, nil
}
