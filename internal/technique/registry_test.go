package technique

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/robust"
)

func TestBuildEveryName(t *testing.T) {
	cases := []struct {
		spec  Spec
		label string
	}{
		{Spec{Name: "CC", Params: map[string]float64{"ratio": 2}}, "CC"},
		{Spec{Name: "DRAM", Params: map[string]float64{"density": 8}}, "DRAM"},
		{Spec{Name: "3D", Params: map[string]float64{"density": 16}}, "3D"},
		{Spec{Name: "Fltr", Params: map[string]float64{"unused": 0.4}}, "Fltr"},
		{Spec{Name: "SmCo", Params: map[string]float64{"shrink": 40}}, "SmCo"},
		{Spec{Name: "LC", Params: map[string]float64{"ratio": 3.5}}, "LC"},
		{Spec{Name: "Sect", Params: map[string]float64{"unused": 0.1}}, "Sect"},
		{Spec{Name: "SmCl", Params: map[string]float64{"unused": 0.8}}, "SmCl"},
		{Spec{Name: "CC/LC", Params: map[string]float64{"ratio": 2.5}}, "CC/LC"},
		{Spec{Name: "CCLC"}, "CC/LC"}, // alias, default params
		{Spec{Name: "Shr", Params: map[string]float64{"shared": 0.63}}, "Shr"},
		{Spec{Name: "ShrPriv", Params: map[string]float64{"shared": 0.5}}, "Shr(priv)"},
		{Spec{Name: "shr(PRIV)", Params: map[string]float64{"shared": 0.5}}, "Shr(priv)"}, // alias
		{Spec{Name: "cc"}, "CC"}, // case-insensitive, default params
	}
	for _, tc := range cases {
		tech, err := Build(tc.spec)
		if err != nil {
			t.Errorf("%v: %v", tc.spec, err)
			continue
		}
		if tech.Label() != tc.label {
			t.Errorf("%v: label %q, want %q", tc.spec, tech.Label(), tc.label)
		}
	}
}

func TestBuildDomainErrors(t *testing.T) {
	bad := []Spec{
		{Name: "Nope"},
		{Name: "CC", Params: map[string]float64{"ratio": 0.5}},
		{Name: "CC", Params: map[string]float64{"density": 2}}, // wrong key
		{Name: "DRAM", Params: map[string]float64{"density": 0}},
		{Name: "3D", Params: map[string]float64{"density": 0.5}},
		{Name: "Fltr", Params: map[string]float64{"unused": 1}},
		{Name: "Fltr", Params: map[string]float64{"unused": -0.1}},
		{Name: "SmCo", Params: map[string]float64{"shrink": 0}},
		{Name: "SmCo", Params: map[string]float64{"shrink": -4}},
		{Name: "Shr", Params: map[string]float64{"shared": 1.2}},
		{Name: "SmCl", Params: map[string]float64{"ratio": 2}}, // wrong key
	}
	for _, sp := range bad {
		_, err := Build(sp)
		if err == nil {
			t.Errorf("%v: accepted", sp)
			continue
		}
		if !errors.Is(err, robust.ErrDomain) {
			t.Errorf("%v: error %v does not wrap robust.ErrDomain", sp, err)
		}
	}
}

func TestSmCoErrorText(t *testing.T) {
	for _, tc := range []struct {
		params map[string]float64
		want   string
	}{
		{map[string]float64{"shrink": 0.5}, "technique: SmCo: shrink must be ≥ 1, got 0.5: "},
		{map[string]float64{"ratio": 2}, `technique: SmCo: unknown parameter "ratio" (want "shrink"): `},
	} {
		_, err := Build(Spec{Name: "SmCo", Params: tc.params})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want prefix %q", tc.params, err, tc.want)
		}
	}
}

func TestBuildStackIndexInError(t *testing.T) {
	_, err := BuildStack([]Spec{{Name: "CC"}, {Name: "Bogus"}})
	if err == nil {
		t.Fatal("bad stack accepted")
	}
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("stack error does not wrap robust.ErrDomain: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	sp := Spec{Name: "CC/LC", Params: map[string]float64{"ratio": 2}}
	if got := sp.String(); got != "CC/LC{ratio:2}" {
		t.Errorf("String = %q", got)
	}
	if got := (Spec{Name: "3D"}).String(); got != "3D" {
		t.Errorf("bare String = %q", got)
	}
}
