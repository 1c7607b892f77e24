package noc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default mesh rejected: %v", err)
	}
	bad := []Mesh{
		{RouterAreaCEA: 0, LinkAreaCEA: 0.01},
		{RouterAreaCEA: 0.04, LinkAreaCEA: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid mesh accepted", i)
		}
	}
}

func TestOverheadFractionGrowsAsCoresShrink(t *testing.T) {
	m := Default() // 0.05 CEA per tile
	full, err := m.OverheadFraction(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-0.05/1.05) > 1e-12 {
		t.Errorf("full-core overhead = %v", full)
	}
	tiny, err := m.OverheadFraction(1.0 / 80)
	if err != nil {
		t.Fatal(err)
	}
	// An 80x-smaller core (0.0125 CEA) is dominated by its 0.05-CEA NoC
	// tile: overhead 80%.
	if tiny < 0.75 {
		t.Errorf("80x-smaller core overhead = %v, want ≥ 0.75", tiny)
	}
	if !(tiny > full) {
		t.Error("overhead must grow as cores shrink")
	}
	if _, err := m.OverheadFraction(0); err == nil {
		t.Error("zero core area accepted")
	}
	bad := Mesh{}
	if _, err := bad.OverheadFraction(1); err == nil {
		t.Error("invalid mesh accepted")
	}
}

func TestEffectiveCoreArea(t *testing.T) {
	m := Default()
	got, err := m.EffectiveCoreArea(1.0 / 40)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.AlmostEqual(got, 1.0/40+0.05, 1e-12) {
		t.Errorf("effective area = %v", got)
	}
	if _, err := m.EffectiveCoreArea(-1); err == nil {
		t.Error("negative core area accepted")
	}
	bad := Mesh{}
	if _, err := bad.EffectiveCoreArea(1); err == nil {
		t.Error("invalid mesh accepted")
	}
}

func TestQuickEffectiveAreaFloor(t *testing.T) {
	// Property: however small the core, the effective tile never drops
	// below the interconnect overhead — the floor that caps core counts.
	m := Default()
	prop := func(a8 uint8) bool {
		area := 1.0 / (1 + float64(a8))
		eff, err := m.EffectiveCoreArea(area)
		return err == nil && eff > m.TileOverheadCEA()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
