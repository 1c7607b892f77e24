package exp

import (
	"context"
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/memsys"
	"repro/internal/noc"
	"repro/internal/render"
	"repro/internal/scaling"
	"repro/internal/technique"
)

func extOverheadsExp() Experiment {
	return Experiment{
		ID:    "ext-overheads",
		Title: "Extension: implementation overheads the paper flags but does not model",
		Paper: "§6.1's caveats: smaller cores make the interconnect \"increasingly larger and more complex\"; DRAM caches need \"refresh capacity\". Both erode the idealized technique models.",
		Run:   runExtOverheads,
	}
}

func runExtOverheads(ctx context.Context, _ Options) (*Result, error) {
	s := scaling.Default()
	values := map[string]float64{}

	// --- Part 1: the NoC floor under smaller cores (Fig 8 revisited). ---
	// A baseline tile (1 CEA) already contains its router and links; only
	// the core logic shrinks, the interconnect does not.
	mesh := noc.Default()
	coreFull := 1 - mesh.TileOverheadCEA()
	nocTable := &render.Table{
		Title:   "Fig 8 with interconnect overhead (mesh router+links = 0.05 CEA/tile)",
		Headers: []string{"core shrink", "ideal f_sm", "effective f_sm", "cores (ideal)", "cores (with NoC)", "NoC share of tile"},
	}
	for _, k := range []float64{1, 9, 40, 80} {
		fsm := 1 / k
		eff, err := mesh.EffectiveCoreArea(coreFull / k)
		if err != nil {
			return nil, err
		}
		frac, err := mesh.OverheadFraction(coreFull / k)
		if err != nil {
			return nil, err
		}
		ideal, err := maxCores(ctx, s, technique.Combine(technique.SmallerCores{AreaFraction: fsm}), 32)
		if err != nil {
			return nil, err
		}
		withNoC, err := maxCores(ctx, s, technique.Combine(technique.SmallerCores{AreaFraction: eff}), 32)
		if err != nil {
			return nil, err
		}
		nocTable.AddRow(fmt.Sprintf("%gx", k), fsm, eff, ideal, withNoC, fmt.Sprintf("%.0f%%", 100*frac))
		values[fmt.Sprintf("noc:cores@%gx", k)] = float64(withNoC)
		values[fmt.Sprintf("ideal:cores@%gx", k)] = float64(ideal)
	}

	// --- Part 2: DRAM-cache refresh discount (Fig 5 revisited). ---
	refresh := memsys.EmbeddedDRAM()
	refreshTable := &render.Table{
		Title:   "Fig 5 with refresh-discounted DRAM density (embedded DRAM, 2ms retention)",
		Headers: []string{"chip", "nominal density", "DRAM capacity", "refresh overhead", "effective density", "cores (nominal)", "cores (discounted)"},
	}
	for _, g := range scaling.Generations(16, 4) {
		const nominal = 8.0
		// Size the DRAM L2 for the nominal technique at this generation:
		// cache CEAs ≈ N − P at the nominal solution.
		nomCores, err := maxCores(ctx, s, technique.Combine(technique.DRAMCache{Density: nominal}), g.N)
		if err != nil {
			return nil, err
		}
		cacheCEAs := g.N - float64(nomCores)
		capBytes, err := cachesim.CapacityForCEAs(cacheCEAs, nominal)
		if err != nil {
			return nil, err
		}
		oh, err := refresh.OverheadFraction(float64(capBytes))
		if err != nil {
			return nil, err
		}
		effDensity, err := refresh.EffectiveDensity(nominal, float64(capBytes))
		if err != nil {
			return nil, err
		}
		discCores, err := maxCores(ctx, s, technique.Combine(technique.DRAMCache{Density: effDensity}), g.N)
		if err != nil {
			return nil, err
		}
		refreshTable.AddRow(g.String(), nominal,
			fmt.Sprintf("%d MB", capBytes>>20),
			fmt.Sprintf("%.2f%%", 100*oh),
			effDensity, nomCores, discCores)
		values[fmt.Sprintf("refresh:cores@%gx", g.Ratio)] = float64(discCores)
		values[fmt.Sprintf("refresh:nominal@%gx", g.Ratio)] = float64(nomCores)
	}

	return &Result{
		ID:     "ext-overheads",
		Title:  "Implementation overheads",
		Tables: []*render.Table{nocTable, refreshTable},
		Notes: []string{
			"the interconnect puts a hard floor under the smaller-cores technique: an 80x-smaller core's tile is ~80% routers and links",
			"embedded-DRAM refresh is negligible at next-generation capacities but grows into a real tax at 16x (hundreds of MB of eDRAM), shaving a few cores off the nominal Fig 15 DRAM numbers",
		},
		Values: values,
	}, nil
}

// maxCores is Solver.MaxCores at the constant envelope under ctx, so
// cancellation and fault injection reach the solve.
func maxCores(ctx context.Context, s scaling.Solver, st technique.Stack, n2 float64) (int, error) {
	sol, err := scaling.Bandwidth(1, false).Solve(ctx, nil, s, st.Params(), n2, 0)
	return sol.Cores, err
}
