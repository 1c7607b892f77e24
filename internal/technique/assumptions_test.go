package technique

import "testing"

func TestAssumptionStrings(t *testing.T) {
	if Pessimistic.String() != "pessimistic" ||
		Realistic.String() != "realistic" ||
		Optimistic.String() != "optimistic" {
		t.Error("Assumption.String broken")
	}
	if Assumption(9).String() == "" {
		t.Error("unknown assumption must stringify")
	}
	if len(Assumptions) != 3 {
		t.Errorf("Assumptions = %v", Assumptions)
	}
}

func TestRatingStrings(t *testing.T) {
	if Low.String() != "Low" || Medium.String() != "Med." || High.String() != "High" {
		t.Error("Rating.String broken")
	}
	if Rating(9).String() == "" {
		t.Error("unknown rating must stringify")
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	wantOrder := []string{"CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC"}
	if len(Catalog) != len(wantOrder) {
		t.Fatalf("catalog size %d, want %d", len(Catalog), len(wantOrder))
	}
	for i, label := range wantOrder {
		if Catalog[i].Label != label {
			t.Errorf("catalog[%d] = %s, want %s (Fig 15 x-axis order)", i, Catalog[i].Label, label)
		}
	}
	// Table 2's ratings.
	checks := []struct {
		label string
		eff   Rating
		rng   Rating
		cplx  Rating
	}{
		{"CC", Medium, Low, Medium},
		{"DRAM", High, Medium, Low},
		{"3D", Medium, Low, High},
		{"Fltr", Medium, Medium, Medium},
		{"SmCo", Low, Low, Low},
		{"LC", High, Medium, Low},
		{"Sect", Medium, High, Medium},
		{"SmCl", High, High, Medium},
		{"CC/LC", High, High, Low},
	}
	for _, c := range checks {
		e, ok := byLabel(c.label)
		if !ok {
			t.Fatalf("missing %s", c.label)
		}
		if e.Effectiveness != c.eff || e.Range != c.rng || e.Complexity != c.cplx {
			t.Errorf("%s ratings = %v/%v/%v, want %v/%v/%v", c.label,
				e.Effectiveness, e.Range, e.Complexity, c.eff, c.rng, c.cplx)
		}
		for _, a := range Assumptions {
			if e.New(a) == nil {
				t.Errorf("%s New(%v) returned nil", c.label, a)
			}
		}
	}
	// Table 2's title, category and parameter texts, as the table2
	// experiment prints them.
	texts := []struct {
		label, title    string
		cat             Category
		pess, real, opt string
	}{
		{"CC", "Cache Compress", Indirect, "1.25x compr.", "2x compr.", "3.5x compr."},
		{"DRAM", "DRAM Cache", Indirect, "4x density", "8x density", "16x density"},
		{"3D", "3D-stacked Cache", Indirect, "3D SRAM layer", "3D SRAM layer", "3D SRAM layer"},
		{"Fltr", "Unused Data Filter", Indirect, "10% unused data", "40% unused data", "80% unused data"},
		{"SmCo", "Smaller Cores", Indirect, "9x less area", "40x less area", "80x less area"},
		{"LC", "Link Compress", Direct, "1.25x compr.", "2x compr.", "3.5x compr."},
		{"Sect", "Sectored Caches", Direct, "10% unused data", "40% unused data", "80% unused data"},
		{"SmCl", "Smaller Cache Lines", Dual, "10% unused data", "40% unused data", "80% unused data"},
		{"CC/LC", "Cache+Link Compress", Dual, "1.25x compr.", "2x compr.", "3.5x compr."},
	}
	for _, w := range texts {
		e, _ := byLabel(w.label)
		if e.Name != w.title || e.Cat != w.cat {
			t.Errorf("%s: title %q, category %v; want %q, %v", w.label, e.Name, e.Cat, w.title, w.cat)
		}
		got := [3]string{e.Scenario[Pessimistic], e.Scenario[Realistic], e.Scenario[Optimistic]}
		if want := [3]string{w.pess, w.real, w.opt}; got != want {
			t.Errorf("%s parameter texts = %q, want %q", w.label, got, want)
		}
	}
}

func TestCatalogParameterValues(t *testing.T) {
	cc, _ := byLabel("CC")
	if got := cc.New(Realistic).(CacheCompression).Ratio; got != 2.0 {
		t.Errorf("CC realistic ratio = %v, want 2.0", got)
	}
	if got := cc.New(Pessimistic).(CacheCompression).Ratio; got != 1.25 {
		t.Errorf("CC pessimistic ratio = %v, want 1.25", got)
	}
	if got := cc.New(Optimistic).(CacheCompression).Ratio; got != 3.5 {
		t.Errorf("CC optimistic ratio = %v, want 3.5", got)
	}
	dram, _ := byLabel("DRAM")
	if got := dram.New(Realistic).(DRAMCache).Density; got != 8 {
		t.Errorf("DRAM realistic density = %v, want 8", got)
	}
	smco, _ := byLabel("SmCo")
	if got := smco.New(Realistic).(SmallerCores).AreaFraction; got != 1.0/40 {
		t.Errorf("SmCo realistic area = %v, want 1/40", got)
	}
	fltr, _ := byLabel("Fltr")
	if got := fltr.New(Optimistic).(UnusedDataFilter).Unused; got != 0.80 {
		t.Errorf("Fltr optimistic unused = %v, want 0.80", got)
	}
	threeD, _ := byLabel("3D")
	for _, a := range Assumptions {
		if got := threeD.New(a).(ThreeDCache).LayerDensity; got != 1 {
			t.Errorf("3D %v layer density = %v, want 1 (SRAM only)", a, got)
		}
	}
}

func TestFig16CombosShape(t *testing.T) {
	combos := Fig16Combos(Realistic)
	if len(combos) != 15 {
		t.Fatalf("combos = %d, want 15", len(combos))
	}
	wantLabels := []string{
		"CC + DRAM + 3D",
		"CC/LC + DRAM",
		"CC + 3D + Fltr",
		"CC/LC + Fltr",
		"DRAM + 3D + LC",
		"DRAM + Fltr + LC",
		"DRAM + LC + Sect",
		"3D + Fltr + LC",
		"SmCl + LC",
		"CC/LC + SmCl",
		"DRAM + 3D + SmCl",
		"CC/LC + DRAM + SmCl",
		"CC/LC + 3D + SmCl",
		"CC/LC + DRAM + 3D",
		"CC/LC + DRAM + 3D + SmCl",
	}
	for i, want := range wantLabels {
		if got := combos[i].Label(); got != want {
			t.Errorf("combo %d = %q, want %q", i, got, want)
		}
	}
	// All combos must produce valid params.
	for _, st := range combos {
		if err := st.Params().Validate(); err != nil {
			t.Errorf("%s: invalid params: %v", st.Label(), err)
		}
	}
}

// byLabel is the catalog entry with the given label.
func byLabel(label string) (CatalogEntry, bool) {
	for _, e := range Catalog {
		if e.Label == label {
			return e, true
		}
	}
	return CatalogEntry{}, false
}
