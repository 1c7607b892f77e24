package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/robust"
	"repro/internal/technique"
)

func validSpec() *Spec {
	return &Spec{
		ID:    "test",
		Title: "test spec",
		Axis:  Axis{N2: []float64{32}},
		Cases: []Case{
			{Label: "BASE", ValueKey: "cores@base"},
			{Label: "CC 2x", Stack: []technique.Spec{{Name: "CC", Params: map[string]float64{"ratio": 2}}}},
		},
	}
}

func TestParseSpecValid(t *testing.T) {
	data, err := json.MarshalIndent(validSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if sp.ID != "test" || len(sp.Cases) != 2 {
		t.Errorf("round trip lost data: %+v", sp)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"id":"x","axis":{"n2":[32]},"cases":[{}],"bogus":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("err = %v, want robust.ErrDomain", err)
	}
}

// TestDecodeErrorsNameJSONPaths: a value of the wrong JSON kind fails
// with its path and both kinds, not with the Go type it would have filled.
func TestDecodeErrorsNameJSONPaths(t *testing.T) {
	parseSpec := func(b []byte) error { _, err := ParseSpec(b); return err }
	parseOpt := func(b []byte) error { _, err := ParseOptimizeSpec(b); return err }
	for _, c := range []struct {
		parse func([]byte) error
		body  string
		want  string
	}{
		{parseSpec, `{"id":"s","budget":2,"axis":{"n2":[32]},"cases":[{}]}`,
			"scenario: s.budget: want object, got number"},
		{parseSpec, `{"id":"s","axis":{"n2":[32]},"cases":[{"stack":[{"name":"CC","params":{"ratio":"two"}}]}]}`,
			"scenario: s.cases.stack.params: want number, got string"},
		{parseOpt, `{"id":"o","n2":32,"split":3}`,
			"scenario: o.split: want object, got number"},
	} {
		err := c.parse([]byte(c.body))
		if err == nil || !errors.Is(err, robust.ErrDomain) || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("%s: error %v, want %q", c.body, err, c.want)
		}
	}
}

// trailingTails are tails neither parser may accept after a valid
// object. dec.More reports false before a closing delimiter, so a check
// built on it alone accepts the first four. The fuzz targets seed from
// them too.
var trailingTails = []string{"}", "]", "}}", "]x", " {}", "x", ` {"id":"y"}`}

// TestParseSpecRejectsTrailingData: both parsers accept JSON whitespace
// after the object and reject anything else with robust.ErrDomain.
func TestParseSpecRejectsTrailingData(t *testing.T) {
	for _, p := range []struct {
		name, body string
		parse      func([]byte) error
	}{
		{"spec", `{"id":"x","axis":{"n2":[32]},"cases":[{}]}`, func(b []byte) error { _, err := ParseSpec(b); return err }},
		{"optimize", optSpec, func(b []byte) error { _, err := ParseOptimizeSpec(b); return err }},
	} {
		if err := p.parse([]byte(p.body + " \t\r\n")); err != nil {
			t.Errorf("%s: trailing whitespace rejected: %v", p.name, err)
		}
		for _, tail := range trailingTails {
			if err := p.parse([]byte(p.body + tail)); !errors.Is(err, robust.ErrDomain) {
				t.Errorf("%s + %q: err = %v, want robust.ErrDomain", p.name, tail, err)
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []func(*Spec){
		func(sp *Spec) { sp.ID = " " },
		func(sp *Spec) { sp.Axis = Axis{} },
		func(sp *Spec) { sp.Axis = Axis{N2: []float64{32}, Generations: 4} },
		func(sp *Spec) { sp.Axis = Axis{N2: []float64{-1}} },
		func(sp *Spec) { sp.Axis = Axis{Ratios: []float64{0}} },
		func(sp *Spec) { sp.Axis = Axis{Generations: -2} },
		func(sp *Spec) { sp.Cases = nil },
		func(sp *Spec) { sp.Alpha = -0.5 },
		func(sp *Spec) { sp.Budget.Envelope = -1 },
		func(sp *Spec) { sp.Baseline = &Baseline{P: 0, C: 8} },
		func(sp *Spec) { sp.Cases[0].Stack = []technique.Spec{{Name: "Bogus"}} },
		func(sp *Spec) { sp.Cases[0].Assumption = "hopeful" },
		func(sp *Spec) { sp.Cases[1].Stack[0].Params["ratio"] = 0.5 },
		func(sp *Spec) { sp.Cases[0].Budget = -1 },
	}
	for i, mutate := range bad {
		sp := validSpec()
		mutate(sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("mutation %d: invalid spec accepted", i)
			continue
		}
		if !errors.Is(err, robust.ErrDomain) {
			t.Errorf("mutation %d: err %v does not wrap robust.ErrDomain", i, err)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := &Spec{
		ID:       "rt",
		Notes:    []string{"a note"},
		Baseline: &Baseline{P: 4, C: 12},
		Alpha:    0.62,
		Budget:   Budget{Envelope: 1.5, Compound: true},
		Axis:     Axis{Generations: 4},
		Cases: []Case{
			{
				Label:      "DRAM pess",
				Stack:      []technique.Spec{{Name: "DRAM"}},
				Assumption: "pessimistic",
				ValueKey:   "DRAM:pess",
				Scenario:   "pessimistic",
			},
			{Label: "hot α", Alpha: 0.9, Budget: 2},
		},
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := json.Marshal(sp)
	d2, _ := json.Marshal(back)
	if string(d1) != string(d2) {
		t.Errorf("round trip drifted:\n%s\n%s", d1, d2)
	}
}

func TestParseAssumption(t *testing.T) {
	cases := map[string]technique.Assumption{
		"pessimistic": technique.Pessimistic,
		"Pess":        technique.Pessimistic,
		"realistic":   technique.Realistic,
		"":            technique.Realistic,
		"OPTIMISTIC":  technique.Optimistic,
		"opt":         technique.Optimistic,
	}
	for in, want := range cases {
		got, err := ParseAssumption(in)
		if err != nil || got != want {
			t.Errorf("ParseAssumption(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAssumption("hopeful"); !errors.Is(err, robust.ErrDomain) {
		t.Errorf("bad assumption err = %v, want robust.ErrDomain", err)
	}
}

func TestCaseBuildStackAssumptionDefaults(t *testing.T) {
	// With an assumption set, parameter-less entries take Table 2's column
	// for it, and explicit parameters still win.
	c := Case{
		Stack: []technique.Spec{
			{Name: "CC"},
			{Name: "DRAM", Params: map[string]float64{"density": 6}},
		},
		Assumption: "optimistic",
	}
	st, err := c.BuildStack()
	if err != nil {
		t.Fatal(err)
	}
	want := technique.Combine(
		technique.CacheCompression{Ratio: 3.5}, // optimistic column
		technique.DRAMCache{Density: 6},        // explicit override
	)
	if st.Params() != want.Params() {
		t.Errorf("params = %+v, want %+v", st.Params(), want.Params())
	}
}

func TestGenKey(t *testing.T) {
	if got := GenKey("cores", 16); got != "cores@16x" {
		t.Errorf("GenKey = %q", got)
	}
	if got := GenKey("CC:pess", 2); got != "CC:pess@2x" {
		t.Errorf("GenKey = %q", got)
	}
}
