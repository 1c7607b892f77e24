package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// quick returns CI-speed options.
func quick() Options { return Options{Quick: true} }

func mustRun(t *testing.T, id string, o Options) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	r, err := e.Run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return r
}

func wantValue(t *testing.T, r *Result, key string, want, tol float64) {
	t.Helper()
	got, ok := r.Value(key)
	if !ok {
		t.Errorf("%s: missing value %q (have %v)", r.ID, key, r.SortedValueKeys())
		return
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: %s = %v, want %v ± %v", r.ID, key, got, want, tol)
	}
}

func TestRegistryComplete(t *testing.T) {
	wantIDs := []string{
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "table2", "writeback", "compression",
		"queueing", "ext-envelope", "ext-hetero", "abl-policy", "abl-model",
		"ext-dramlat", "ext-overheads", "abl-eq5", "ext-throughput",
		"ext-drambw",
	}
	if len(Registry) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(wantIDs))
	}
	for i, id := range wantIDs {
		if Registry[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, Registry[i].ID, id)
		}
		if Registry[i].Title == "" || Registry[i].Paper == "" || Registry[i].Run == nil {
			t.Errorf("%s: incomplete registration", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID must miss unknown ids")
	}
}

func TestResultRendering(t *testing.T) {
	r := mustRun(t, "fig02", quick())
	s := r.String()
	for _, want := range []string{"fig02", "cores", "envelope"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	if _, ok := r.Value("not-a-key"); ok {
		t.Error("Value must miss unknown keys")
	}
}

// --- Model-exact figures: these must match the paper exactly. ---

func TestFig02Headlines(t *testing.T) {
	r := mustRun(t, "fig02", quick())
	wantValue(t, r, "cores@B=1", 11, 0)
	wantValue(t, r, "cores@B=1.5", 13, 0)
	wantValue(t, r, "traffic@16cores", 2, 1e-9)
	wantValue(t, r, "intersection@B=1", 11.03, 0.01)
}

func TestFig03Headlines(t *testing.T) {
	r := mustRun(t, "fig03", quick())
	wantValue(t, r, "cores@16x", 24, 0)
	wantValue(t, r, "area%@16x", 9.6, 0.2)
	wantValue(t, r, "cores@2x", 11, 0)
	wantValue(t, r, "cores@1x", 8, 0)
	// The core area share declines monotonically (Fig 3's message).
	prev := math.Inf(1)
	for _, ratio := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
		v, ok := r.Value(genKey("area%", ratio))
		if !ok {
			t.Fatalf("missing area%% at %gx", ratio)
		}
		if v >= prev {
			t.Errorf("area%% did not decline at %gx: %v after %v", ratio, v, prev)
		}
		prev = v
	}
}

func TestFig04Headlines(t *testing.T) {
	r := mustRun(t, "fig04", quick())
	wantValue(t, r, "cores@none", 11, 0)
	wantValue(t, r, "cores@1.30x", 11, 0)
	wantValue(t, r, "cores@1.70x", 12, 0)
	wantValue(t, r, "cores@2.00x", 13, 0)
	wantValue(t, r, "cores@2.50x", 14, 0)
	wantValue(t, r, "cores@3.00x", 14, 0)
}

func TestFig05Headlines(t *testing.T) {
	r := mustRun(t, "fig05", quick())
	wantValue(t, r, "cores@sram", 11, 0)
	wantValue(t, r, "cores@4x", 16, 0)
	wantValue(t, r, "cores@8x", 18, 0)
	wantValue(t, r, "cores@16x", 21, 0)
}

func TestFig06Headlines(t *testing.T) {
	r := mustRun(t, "fig06", quick())
	wantValue(t, r, "cores@none", 11, 0)
	wantValue(t, r, "cores@sram", 14, 0)
	wantValue(t, r, "cores@8x", 25, 0)
	wantValue(t, r, "cores@16x", 32, 0)
}

func TestFig07Headlines(t *testing.T) {
	r := mustRun(t, "fig07", quick())
	wantValue(t, r, "cores@0%", 11, 0)
	wantValue(t, r, "cores@40%", 12, 0)
	wantValue(t, r, "cores@80%", 16, 0)
}

func TestFig08Headlines(t *testing.T) {
	r := mustRun(t, "fig08", quick())
	wantValue(t, r, "cores@1x", 11, 0)
	for _, key := range []string{"cores@9x", "cores@45x", "cores@80x"} {
		v, ok := r.Value(key)
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if v < 11 || v > 13 {
			t.Errorf("%s = %v, want 11–13 (limited benefit)", key, v)
		}
	}
}

func TestFig09Headlines(t *testing.T) {
	r := mustRun(t, "fig09", quick())
	wantValue(t, r, "cores@2.00x", 16, 0)
	// Super-proportional beyond 2x.
	v, _ := r.Value("cores@3.00x")
	if v <= 16 {
		t.Errorf("3x link compression = %v cores, want > 16", v)
	}
}

func TestFig10Headlines(t *testing.T) {
	r := mustRun(t, "fig10", quick())
	wantValue(t, r, "cores@40%", 14, 0)
	wantValue(t, r, "cores@80%", 23, 0)
}

func TestFig11Headlines(t *testing.T) {
	r := mustRun(t, "fig11", quick())
	wantValue(t, r, "cores@40%", 16, 0)
	wantValue(t, r, "cores@80%", 28, 0)
}

func TestFig12Headlines(t *testing.T) {
	r := mustRun(t, "fig12", quick())
	wantValue(t, r, "cores@2.00x", 18, 0)
}

func TestFig13Headlines(t *testing.T) {
	r := mustRun(t, "fig13", quick())
	wantValue(t, r, "fsh@16cores", 0.40, 0.01)
	wantValue(t, r, "fsh@32cores", 0.63, 0.01)
	wantValue(t, r, "fsh@64cores", 0.77, 0.01)
	wantValue(t, r, "fsh@128cores", 0.86, 0.015)
}

func TestFig15Headlines(t *testing.T) {
	r := mustRun(t, "fig15", quick())
	wantValue(t, r, "BASE@16x", 24, 0)
	wantValue(t, r, "IDEAL@16x", 128, 0)
	wantValue(t, r, "DRAM@16x", 47, 0)
	wantValue(t, r, "LC@16x", 38, 0)
	wantValue(t, r, "CC@16x", 30, 0)
	wantValue(t, r, "BASE@2x", 11, 0)
	wantValue(t, r, "BASE@4x", 14, 0)
	// §6.4 ordering at the realistic point, 16x: direct ≥ indirect for the
	// same factor; dual ≥ direct.
	cc, _ := r.Value("CC@16x")
	lc, _ := r.Value("LC@16x")
	cclc, _ := r.Value("CC/LC@16x")
	if !(lc > cc) || !(cclc > lc) {
		t.Errorf("ordering violated: CC=%v, LC=%v, CC/LC=%v", cc, lc, cclc)
	}
	// Smaller cores are the least effective technique (Table 2: Low).
	smco, _ := r.Value("SmCo@16x")
	for _, label := range []string{"CC", "DRAM", "3D", "LC", "Sect", "SmCl", "CC/LC"} {
		v, _ := r.Value(label + "@16x")
		if v < smco {
			t.Errorf("%s (%v) below SmCo (%v)", label, v, smco)
		}
	}
}

func TestFig16Headlines(t *testing.T) {
	r := mustRun(t, "fig16", quick())
	wantValue(t, r, "CC/LC + DRAM + 3D + SmCl@16x", 183, 0)
	wantValue(t, r, "allcombined:area%@16x", 71, 1)
	// Super-proportional: the all-combined stack beats IDEAL at every
	// generation.
	for _, g := range []float64{2, 4, 8, 16} {
		v, ok := r.Value(genKey("CC/LC + DRAM + 3D + SmCl", g))
		if !ok {
			t.Fatalf("missing all-combined at %gx", g)
		}
		if v <= 8*g {
			t.Errorf("all-combined at %gx = %v, want > %v (super-proportional)", g, v, 8*g)
		}
	}
}

func TestFig17Headlines(t *testing.T) {
	r := mustRun(t, "fig17", quick())
	// Large α supports far more cores than small α at BASE (paper: nearly 2x).
	small, _ := r.Value("BASE:a=0.25@16x")
	large, _ := r.Value("BASE:a=0.62@16x")
	if small <= 0 || large/small < 1.7 {
		t.Errorf("BASE α gap = %v/%v, want ratio ≥ 1.7", large, small)
	}
	// With stacked techniques, small α stays sub-proportional while large α
	// is super-proportional.
	smallTech, _ := r.Value("CC/LC + DRAM + 3D:a=0.25@16x")
	largeTech, _ := r.Value("CC/LC + DRAM + 3D:a=0.62@16x")
	if smallTech >= 128 {
		t.Errorf("small α with techniques = %v, want < 128 (sub-proportional)", smallTech)
	}
	if largeTech <= 128 {
		t.Errorf("large α with techniques = %v, want > 128 (super-proportional)", largeTech)
	}
}

func TestTable2(t *testing.T) {
	r := mustRun(t, "table2", quick())
	wantValue(t, r, "rows", 9, 0)
	s := r.Tables[0].String()
	for _, tech := range []string{"Cache Compress", "DRAM Cache", "3D-stacked Cache",
		"Unused Data Filter", "Smaller Cores", "Link Compress", "Sectored Caches",
		"Cache+Link Compress", "Smaller Cache Lines"} {
		if !strings.Contains(s, tech) {
			t.Errorf("Table 2 missing %q", tech)
		}
	}
}

// --- Simulation-backed figures: shape-level checks. ---

func TestFig01ShapeQuick(t *testing.T) {
	r := mustRun(t, "fig01", quick())
	// Fitted α values ordered like the targets and within tolerance, for
	// the extremes the paper quotes explicitly.
	type pair struct {
		key    string
		target float64
	}
	pairs := []pair{
		{"alpha:SPEC2006 (avg)", 0.25},
		{"alpha:OLTP-2", 0.36},
		{"alpha:OLTP-4", 0.62},
	}
	prev := 0.0
	for _, p := range pairs {
		got, ok := r.Value(p.key)
		if !ok {
			t.Fatalf("missing %s (have %v)", p.key, r.SortedValueKeys())
		}
		if math.Abs(got-p.target) > 0.12 { // quick mode is noisier
			t.Errorf("%s = %v, want ≈%v", p.key, got, p.target)
		}
		if got <= prev {
			t.Errorf("α ordering broken at %s: %v after %v", p.key, got, prev)
		}
		prev = got
		r2, _ := r.Value("r2:" + strings.TrimPrefix(p.key, "alpha:"))
		if r2 < 0.95 {
			t.Errorf("%s: R² = %v, want ≥ 0.95 (power-law straightness)", p.key, r2)
		}
		// The bootstrap CI must cover the point estimate.
		lo, _ := r.Value("alphaLo:" + strings.TrimPrefix(p.key, "alpha:"))
		hi, _ := r.Value("alphaHi:" + strings.TrimPrefix(p.key, "alpha:"))
		if !(lo <= got && got <= hi) {
			t.Errorf("%s: point %v outside CI [%v, %v]", p.key, got, lo, hi)
		}
	}
	// The fitted commercial average tracks the paper's 0.48.
	avg, ok := r.Value("alpha:commercial-avg")
	if !ok {
		t.Fatal("missing commercial average")
	}
	if math.Abs(avg-0.48) > 0.1 {
		t.Errorf("commercial average α = %v, want ≈0.48", avg)
	}
	// The phased workload must fit worse than every power-law workload.
	phasedR2, ok := r.Value("r2:SPEC-app (phased)")
	if !ok {
		t.Fatal("missing phased R²")
	}
	commR2, _ := r.Value("r2:OLTP-1")
	if phasedR2 >= commR2 {
		t.Errorf("phased R² (%v) not worse than commercial (%v)", phasedR2, commR2)
	}
}

func TestFig14ShapeQuick(t *testing.T) {
	r := mustRun(t, "fig14", quick())
	f4, _ := r.Value("shared%@4cores")
	f8, _ := r.Value("shared%@8cores")
	f16, _ := r.Value("shared%@16cores")
	if !(f4 > f8 && f8 > f16) {
		t.Errorf("sharing not decreasing: %v, %v, %v", f4, f8, f16)
	}
	for _, f := range []float64{f4, f8, f16} {
		if f < 8 || f > 25 {
			t.Errorf("shared fraction %v%% outside the plausible band (paper: 15–17.5%%)", f)
		}
	}
}

func TestWritebackQuick(t *testing.T) {
	r := mustRun(t, "writeback", quick())
	spread, ok := r.Value("rwb:spread")
	if !ok {
		t.Fatal("missing spread")
	}
	if spread > 0.05 {
		t.Errorf("write-back ratio spread = %v, want ≤ 0.05 (constancy)", spread)
	}
	mn, _ := r.Value("rwb:min")
	if mn < 0.2 || mn > 0.4 {
		t.Errorf("r_wb = %v, want near the 0.3 per-line write fraction", mn)
	}
}

func TestCompressionQuick(t *testing.T) {
	r := mustRun(t, "compression", quick())
	comm, _ := r.Value("fpc:commercial")
	intg, _ := r.Value("fpc:integer")
	fp, _ := r.Value("fpc:floating-point")
	if comm < 1.4 || comm > 3.0 {
		t.Errorf("commercial FPC = %v, want in [1.4, 3.0]", comm)
	}
	if !(intg > comm && comm > fp) {
		t.Errorf("ratio ordering broken: int=%v comm=%v fp=%v", intg, comm, fp)
	}
	link, _ := r.Value("link:commercial")
	if link <= 1.2 {
		t.Errorf("link ratio = %v, want > 1.2", link)
	}
}

func TestQueueing(t *testing.T) {
	r := mustRun(t, "queueing", quick())
	knee, _ := r.Value("knee:cores")
	if knee != 14 {
		t.Errorf("knee = %v, want 14", knee)
	}
	tp, _ := r.Value("throughput@2xknee")
	if math.Abs(tp-knee) > 1e-9 {
		t.Errorf("throughput at 2x knee = %v, want flat %v", tp, knee)
	}
}

// TestRunAllQuick runs the quick registry serially through RunSuite, the
// runner behind `bandwall run` and `bandwall report`: every experiment
// must come back, in registry order, with tables, headline values and a
// non-empty render.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	outcomes, err := RunSuite(context.Background(), Registry, quick(), SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(Registry) {
		t.Errorf("got %d outcomes", len(outcomes))
	}
	for i, oc := range outcomes {
		r := oc.Result
		if r == nil || r.ID != Registry[i].ID {
			t.Errorf("outcome %d out of order or without a result", i)
			continue
		}
		if len(r.Tables) == 0 {
			t.Errorf("%s: no tables", r.ID)
		}
		if len(r.Values) == 0 {
			t.Errorf("%s: no headline values", r.ID)
		}
		if r.String() == "" {
			t.Errorf("%s: empty render", r.ID)
		}
	}
}

// --- Extensions and ablations. ---

func TestExtEnvelope(t *testing.T) {
	r := mustRun(t, "ext-envelope", quick())
	// Constant envelope matches the paper's BASE/DRAM headlines.
	wantValue(t, r, "BASE:constant (paper default)@16x", 24, 0)
	wantValue(t, r, "DRAM=8:constant (paper default)@16x", 47, 0)
	// A 2x-per-generation envelope exactly sustains proportional scaling.
	wantValue(t, r, "BASE:proportional-sustaining (2x/gen)@16x", 128, 0)
	// ITRS-rate growth lands strictly between constant and proportional.
	itrs, _ := r.Value("BASE:ITRS pins (+10%/yr → 1.154x/gen)@16x")
	if itrs <= 24 || itrs >= 128 {
		t.Errorf("ITRS cores = %v, want in (24, 128)", itrs)
	}
}

func TestExtHetero(t *testing.T) {
	r := mustRun(t, "ext-hetero", quick())
	// The best mix must beat the homogeneous 11-core design's throughput.
	best, _ := r.Value("best:throughput")
	homog, _ := r.Value("homogeneous:throughput")
	if !(best > homog) {
		t.Errorf("hetero best throughput %v does not beat homogeneous %v", best, homog)
	}
	// Each big core displaces several littles.
	l0, _ := r.Value("littles@0big")
	l4, _ := r.Value("littles@4big")
	if !(l0 > l4) {
		t.Errorf("littles did not decrease with big cores: %v, %v", l0, l4)
	}
	// With 11 big cores (the Fig 2 answer) there is no room in the
	// envelope for any little.
	l11, _ := r.Value("littles@11big")
	if l11 != 0 {
		t.Errorf("littles @11 big = %v, want 0", l11)
	}
}

func TestAblPolicy(t *testing.T) {
	r := mustRun(t, "abl-policy", quick())
	for _, key := range []string{
		"alpha:LRU/8-way", "alpha:PLRU/8-way", "alpha:FIFO/8-way",
		"alpha:Random/8-way", "alpha:LRU/full",
	} {
		v, ok := r.Value(key)
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if math.Abs(v-0.5) > 0.1 {
			t.Errorf("%s = %v, want ≈0.5 (policy-independent exponent)", key, v)
		}
	}
	// Direct-mapped conflicts flatten the curve a little but stay in range.
	dm, _ := r.Value("alpha:LRU/1-way")
	if dm < 0.3 || dm > 0.6 {
		t.Errorf("direct-mapped α = %v", dm)
	}
}

func TestAblModel(t *testing.T) {
	r := mustRun(t, "abl-model", quick())
	ccModel, _ := r.Value("cc:model")
	ccMeasured, _ := r.Value("cc:measured")
	if math.Abs(ccMeasured-ccModel) > 0.06 {
		t.Errorf("Eq. 8 check: measured %v vs model %v", ccMeasured, ccModel)
	}
	vs2x, _ := r.Value("cc:vs2xcache")
	if math.Abs(vs2x-1) > 0.1 {
		t.Errorf("compressed cache should behave like a 2x cache: ratio %v", vs2x)
	}
	sectModel, _ := r.Value("sect:model")
	sectMeasured, _ := r.Value("sect:measured")
	if math.Abs(sectMeasured-sectModel) > 0.02 {
		t.Errorf("Sect check: measured %v vs model %v", sectMeasured, sectModel)
	}
	lc, _ := r.Value("lc:measured")
	if lc < 1.3 || lc > 2.5 {
		t.Errorf("link ratio %v outside the plausible window", lc)
	}
}

func TestExtDRAMLatency(t *testing.T) {
	r := mustRun(t, "ext-dramlat", quick())
	// The capacity window: sets between the SRAM and DRAM capacities are
	// where the dense-but-slow cache wins.
	sramMid, _ := r.Value("sram:medium (4MB)")
	dramMid, _ := r.Value("dram:medium (4MB)")
	if !(dramMid < sramMid) {
		t.Errorf("DRAM L2 should win at a 4MB working set: %v vs %v", dramMid, sramMid)
	}
	// Outside the window, latency wins.
	sramSmall, _ := r.Value("sram:small (512KB)")
	dramSmall, _ := r.Value("dram:small (512KB)")
	if !(sramSmall < dramSmall) {
		t.Errorf("SRAM L2 should win at a 512KB working set: %v vs %v", sramSmall, dramSmall)
	}
	sramBig, _ := r.Value("sram:large (32MB)")
	dramBig, _ := r.Value("dram:large (32MB)")
	if !(sramBig < dramBig) {
		t.Errorf("SRAM L2 should win when both thrash: %v vs %v", sramBig, dramBig)
	}
}

// TestSimulatorsPublishObs runs ext-dramlat and fig14 against a fresh obs
// registry: cachesim.accesses must count at least every L1 access of the
// run, measured window included (3 footprints × 2 L2s × 250,000, and 3
// core counts × 250,000).
func TestSimulatorsPublishObs(t *testing.T) {
	for _, tc := range []struct {
		id         string
		l1Accesses uint64
	}{
		{"ext-dramlat", 3 * 2 * 250_000},
		{"fig14", 3 * 250_000},
	} {
		t.Run(tc.id, func(t *testing.T) {
			reg := obs.NewRegistry()
			prev := obs.Default()
			obs.SetDefault(reg)
			defer obs.SetDefault(prev)
			e, ok := ByID(tc.id)
			if !ok {
				t.Fatalf("experiment %s not registered", tc.id)
			}
			if _, err := RunOne(context.Background(), e, quick()); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("cachesim.accesses").Value(); got < tc.l1Accesses {
				t.Errorf("cachesim.accesses = %d, want ≥ %d", got, tc.l1Accesses)
			}
		})
	}
}

// TestRunAllParallel runs the whole registry through RunSuite on four
// workers (the CI race job runs it under -race): real experiments must
// run side by side and come back in registry order.
func TestRunAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	outcomes, err := RunSuite(context.Background(), Registry, quick(), SuiteConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(Registry) {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for i, oc := range outcomes {
		if oc.Result == nil || oc.Result.ID != Registry[i].ID {
			t.Errorf("outcome %d out of order or without a result", i)
		}
	}
}

func TestExtOverheads(t *testing.T) {
	r := mustRun(t, "ext-overheads", quick())
	// The NoC floor bites hardest at extreme shrinks: the corrected core
	// count never exceeds the idealized one.
	for _, k := range []float64{9, 40, 80} {
		ideal, _ := r.Value(fmt.Sprintf("ideal:cores@%gx", k))
		withNoC, _ := r.Value(fmt.Sprintf("noc:cores@%gx", k))
		if withNoC > ideal {
			t.Errorf("NoC overhead increased cores at %gx: %v > %v", k, withNoC, ideal)
		}
	}
	// Refresh is negligible at next-generation capacities...
	nom2, _ := r.Value("refresh:nominal@2x")
	disc2, _ := r.Value("refresh:cores@2x")
	if disc2 != nom2 {
		t.Errorf("refresh discount at 2x: %v vs %v, want equal", disc2, nom2)
	}
	// ...but real at 16x: a few cores lost, not a collapse.
	nom16, _ := r.Value("refresh:nominal@16x")
	disc16, _ := r.Value("refresh:cores@16x")
	if !(disc16 < nom16) {
		t.Errorf("refresh should cost cores at 16x: %v vs %v", disc16, nom16)
	}
	if disc16 < nom16-6 {
		t.Errorf("refresh discount implausibly harsh at 16x: %v vs %v", disc16, nom16)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := mustRun(t, "fig02", quick())
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID || back.Title != r.Title {
		t.Errorf("identity lost: %s/%s", back.ID, back.Title)
	}
	if len(back.Tables) != len(r.Tables) {
		t.Errorf("tables = %d, want %d", len(back.Tables), len(r.Tables))
	}
	if v, ok := back.Value("cores@B=1"); !ok || v != 11 {
		t.Errorf("values lost: %v %v", v, ok)
	}
	if len(back.Tables) > 0 && back.Tables[0].String() == "" {
		t.Error("round-tripped table renders empty")
	}
}

func TestAblEq5(t *testing.T) {
	r := mustRun(t, "abl-eq5", quick())
	for _, p := range []int{6, 8, 10} {
		measured, ok1 := r.Value(fmt.Sprintf("measured@%dcores", p))
		predicted, ok2 := r.Value(fmt.Sprintf("predicted@%dcores", p))
		if !ok1 || !ok2 {
			t.Fatalf("missing values at %d cores", p)
		}
		if rel := math.Abs(measured-predicted) / predicted; rel > 0.05 {
			t.Errorf("%d cores: measured %v vs Eq. 5 %v (%.1f%% off)", p, measured, predicted, 100*rel)
		}
	}
}

func TestCompressionDictCodec(t *testing.T) {
	r := mustRun(t, "compression", quick())
	dict, ok := r.Value("link:dict")
	if !ok {
		t.Fatal("missing dictionary-codec ratio")
	}
	if dict <= 1.2 {
		t.Errorf("dictionary link ratio = %v, want > 1.2", dict)
	}
}

func TestExtThroughput(t *testing.T) {
	r := mustRun(t, "ext-throughput", quick())
	// Below the knee IPC scales ~linearly; above it, it pins to the ceiling.
	ipc4, _ := r.Value("ipc@4cores")
	ipc8, _ := r.Value("ipc@8cores")
	if ratio := ipc8 / ipc4; ratio < 1.8 {
		t.Errorf("pre-knee scaling 4→8 cores = %.2fx, want ≈2x", ratio)
	}
	ceiling, _ := r.Value("ipc:ceiling")
	ipc64, _ := r.Value("ipc@64cores")
	if math.Abs(ipc64-ceiling)/ceiling > 0.08 {
		t.Errorf("post-wall IPC = %v, want ≈ceiling %v", ipc64, ceiling)
	}
	util64, _ := r.Value("util@64cores")
	if util64 < 0.9 {
		t.Errorf("channel utilization at 64 cores = %v, want ≈1", util64)
	}
	knee, _ := r.Value("knee:analytic")
	if knee < 10 || knee > 30 {
		t.Errorf("analytic knee = %v, want in the teens-to-twenties", knee)
	}
}

func TestExtDRAMBandwidth(t *testing.T) {
	r := mustRun(t, "ext-drambw", quick())
	seqOpen, _ := r.Value("open-page:sequential scan")
	if seqOpen < 0.9 {
		t.Errorf("sequential open-page = %v of peak, want ≥ 0.9", seqOpen)
	}
	randOpen, _ := r.Value("open-page:random rows")
	if !(randOpen < seqOpen) {
		t.Errorf("random (%v) should deliver less than sequential (%v)", randOpen, seqOpen)
	}
	randClosed, _ := r.Value("closed-page:random rows")
	if !(randClosed > randOpen*0.99) {
		t.Errorf("closed page should not lose badly on random rows: %v vs %v", randClosed, randOpen)
	}
}

func TestFig13PrivateCacheVariant(t *testing.T) {
	r := mustRun(t, "fig13", quick())
	// Footnote 1: with private caches the break-even sharing is higher at
	// every scale (replication cancels the capacity half of the benefit).
	for _, p := range []float64{16, 32, 64, 128} {
		shared, _ := r.Value(fmt.Sprintf("fsh@%gcores", p))
		priv, ok := r.Value(fmt.Sprintf("fshPriv@%gcores", p))
		if !ok {
			t.Fatalf("missing private-cache break-even at %g cores", p)
		}
		if !(priv > shared) {
			t.Errorf("%g cores: private-cache f_sh (%v) should exceed shared-cache (%v)", p, priv, shared)
		}
	}
	// Closed form at 16 cores: (16−8)/(16−1) = 8/15.
	priv16, _ := r.Value("fshPriv@16cores")
	if math.Abs(priv16-8.0/15) > 1e-9 {
		t.Errorf("private break-even @16 = %v, want 8/15", priv16)
	}
}

func TestExtDRAMBandwidthFRFCFS(t *testing.T) {
	r := mustRun(t, "ext-drambw", quick())
	for _, stream := range []string{"power-law miss stream", "random rows"} {
		fifo, _ := r.Value("open-page:" + stream)
		sched, ok := r.Value("frfcfs:" + stream)
		if !ok {
			t.Fatalf("missing FR-FCFS value for %s", stream)
		}
		if sched < fifo*0.99 {
			t.Errorf("%s: FR-FCFS (%v) should not lose to FIFO (%v)", stream, sched, fifo)
		}
	}
}
