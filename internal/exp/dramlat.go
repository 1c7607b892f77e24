package exp

import (
	"context"
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/workload"
)

func extDRAMLatencyExp() Experiment {
	return Experiment{
		ID:    "ext-dramlat",
		Title: "Extension: the DRAM-cache latency trade-off (AMAT)",
		Paper: "§6.1 flags DRAM caches' \"possible access latency increases\" as an implementation aspect but does not quantify when capacity beats latency.",
		Run:   runExtDRAMLat,
	}
}

// runExtDRAMLat simulates the same workload behind an SRAM L2 and an
// 8x-larger but slower DRAM L2 (same die area) and compares average memory
// access times across workload footprints.
func runExtDRAMLat(ctx context.Context, o Options) (*Result, error) {
	accesses := 1_000_000
	warmup := 250_000
	if o.Quick {
		accesses, warmup = 250_000, 50_000
	}
	l1cfg := cachesim.Config{
		SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4,
		Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
	}
	// Equal die area: 2 CEAs of L2. SRAM: 1MB @ 10ns; DRAM (8x): 8MB @ 35ns.
	sramL2 := cachesim.Config{
		SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8,
		Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true,
	}
	dramL2 := sramL2
	dramL2.SizeBytes = 8 << 20
	sramTiming := cachesim.Timing{L1HitNS: 2, L2HitNS: 10, MemNS: 100}
	dramTiming := cachesim.Timing{L1HitNS: 2, L2HitNS: 35, MemNS: 100}

	tb := &render.Table{
		Title:   "AMAT: SRAM L2 (1MB, 10ns) vs DRAM L2 (8MB, 35ns), same die area",
		Headers: []string{"working set", "SRAM AMAT ns", "DRAM AMAT ns", "winner"},
	}
	values := map[string]float64{}
	footprints := []struct {
		name  string
		lines uint64
	}{
		{"small (512KB)", 1 << 13},
		{"medium (4MB)", 1 << 16},
		{"large (32MB)", 1 << 19},
	}
	// One trace buffer reused across every footprint x L2 replay.
	buf := make([]trace.Access, accesses)
	for _, fp := range footprints {
		amat := map[string]float64{}
		for name, l2cfg := range map[string]cachesim.Config{"sram": sramL2, "dram": dramL2} {
			// A cyclic scan over the working set: the capacity-or-nothing
			// regime where cache size alone decides the miss rate (LRU
			// thrashes completely once the set exceeds the cache).
			g, err := workload.NewStrided(fp.lines, 0, 0)
			if err != nil {
				return nil, err
			}
			h, err := cachesim.NewHierarchy(l1cfg, l2cfg)
			if err != nil {
				return nil, err
			}
			tr := trace.CollectInto(g, buf)
			for _, a := range tr[:warmup] {
				h.Access(a)
			}
			h.ResetStats()
			for _, a := range tr[warmup:] {
				h.Access(a)
			}
			h.FlushObs()
			timing := sramTiming
			if name == "dram" {
				timing = dramTiming
			}
			v, err := cachesim.AMAT(h.L1().Stats(), h.L2().Stats(), timing)
			if err != nil {
				return nil, err
			}
			amat[name] = v
		}
		winner := "SRAM"
		if amat["dram"] < amat["sram"] {
			winner = "DRAM"
		}
		tb.AddRow(fp.name, amat["sram"], amat["dram"], winner)
		values[fmt.Sprintf("sram:%s", fp.name)] = amat["sram"]
		values[fmt.Sprintf("dram:%s", fp.name)] = amat["dram"]
	}
	return &Result{
		ID:     "ext-dramlat",
		Title:  "DRAM-cache latency trade-off",
		Tables: []*render.Table{tb},
		Notes: []string{
			"the DRAM cache wins exactly in the capacity window between the two designs (working set larger than the SRAM, smaller than the DRAM) — where the 8x density pays for the 3.5x hit-latency penalty",
			"outside that window latency dominates: small sets fit the fast SRAM, huge sets thrash both — the paper's caveat and its high-effectiveness ranking are both right, in different regimes",
		},
		Values: values,
	}, nil
}
