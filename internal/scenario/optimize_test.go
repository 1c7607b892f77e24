package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/robust"
)

const optSpec = `{
  "id": "opt", "n2": 32,
  "envelopes": [{"kind": "Bandwidth", "limit": 1}, {"kind": "THERMAL", "limit": 2}],
  "objective": "Cores",
  "catalog": [
    {"name": "cc", "params": {"ratio": 2}, "cost": 2},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4, "group": "mem"}
  ],
  "max_techniques": 2
}`

func TestParseOptimizeSpec(t *testing.T) {
	osp, err := ParseOptimizeSpec([]byte(optSpec))
	if err != nil {
		t.Fatal(err)
	}
	if osp.ObjectiveResolved() != ObjectiveCores {
		t.Errorf("objective = %q", osp.ObjectiveResolved())
	}
	// Kinds canonicalize to lower case on parse.
	if osp.Envelopes[0].Kind != "bandwidth" || osp.Envelopes[1].Kind != "thermal" {
		t.Errorf("kinds not canonicalized: %+v", osp.Envelopes)
	}
	// The ignored split parses and is zeroed, so it cannot reach the
	// canonical form.
	withSplit, err := ParseOptimizeSpec([]byte(strings.Replace(optSpec, `"max_techniques": 2`,
		`"max_techniques": 2, "split": {"min": 0.5, "max": 2, "points": 4}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if withSplit.Split != (SplitRange{}) {
		t.Errorf("split not zeroed: %+v", withSplit.Split)
	}
}

func TestOptimizeSpecCanonicalFixedPoint(t *testing.T) {
	osp, err := ParseOptimizeSpec([]byte(optSpec))
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(osp)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseOptimizeSpec(first)
	if err != nil {
		t.Fatalf("reparse canonical form: %v", err)
	}
	second, err := json.Marshal(re)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("Marshal→Parse→Marshal not a fixed point:\n%s\n%s", first, second)
	}
}

func TestOptimizeSpecLoneBandwidthFoldsToBudget(t *testing.T) {
	osp, err := ParseOptimizeSpec([]byte(`{"id":"o","n2":32,
	  "envelopes":[{"kind":"bandwidth","limit":1.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(osp.Envelopes) != 0 || osp.Budget.Envelope != 1.5 {
		t.Fatalf("lone bandwidth envelope did not fold: %+v", osp)
	}
	// Both spellings produce the same canonical bytes.
	alias, err := ParseOptimizeSpec([]byte(`{"id":"o","n2":32,"budget":{"envelope":1.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(osp)
	b, _ := json.Marshal(alias)
	if string(a) != string(b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
}

func TestOptimizeSpecValidationErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{"n2":32}`, "needs an id"},
		{`{"id":"o"}`, "o.n2: chip area must be positive"},
		{`{"id":"o","n2":32,"objective":"watts"}`, `o.objective: unknown objective "watts"`},
		{`{"id":"o","n2":32,"catalog":[{"name":"nosuch"}]}`, "o.catalog[0] (nosuch)"},
		{`{"id":"o","n2":32,"catalog":[{"name":"CC","cost":-1}]}`, "o.catalog[0] (CC): cost must be non-negative"},
		{`{"id":"o","n2":32,"max_techniques":-1}`, "o.max_techniques: must be non-negative"},
		{`{"id":"o","n2":32,"envelopes":[{"kind":"termal"}]}`, `o.envelopes[0]: unknown kind "termal"`},
		{`{"id":"o","n2":32,"budget":{"envelope":2},"envelopes":[{"kind":"thermal"}]}`, "o.envelopes: mutually exclusive"},
		{`{"id":"o","n2":32,"bogus":1}`, "unknown field"},
	}
	for _, c := range cases {
		_, err := ParseOptimizeSpec([]byte(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %s: error %v, want substring %q", c.src, err, c.want)
		}
		if err != nil && !errors.Is(err, robust.ErrDomain) {
			t.Errorf("spec %s: error not domain-classified: %v", c.src, err)
		}
	}
}

func TestCatalogEntryGroups(t *testing.T) {
	groups := func(e CatalogEntry) string { return strings.Join(e.Groups(), ",") }
	if g := groups(CatalogEntry{Name: "dram"}); g != "DRAM" {
		t.Errorf("default group = %q, want canonical DRAM", g)
	}
	if g := groups(CatalogEntry{Name: "DRAM", Group: "mem"}); g != "mem" {
		t.Errorf("explicit group = %q", g)
	}
	if g := groups(CatalogEntry{Name: "CCLC"}); g != "CC/LC,CC,LC" {
		t.Errorf("CC/LC groups = %q, want implied CC and LC exclusion", g)
	}
}
