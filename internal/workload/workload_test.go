package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func stackCfg() StackDistanceConfig {
	return StackDistanceConfig{
		Alpha:          0.5,
		HotLines:       128,
		FootprintLines: 1 << 16,
		WriteFraction:  0.3,
		Seed:           7,
	}
}

func TestStackDistanceConfigValidate(t *testing.T) {
	good := stackCfg()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	mutations := []func(*StackDistanceConfig){
		func(c *StackDistanceConfig) { c.Alpha = 0 },
		func(c *StackDistanceConfig) { c.Alpha = 2 },
		func(c *StackDistanceConfig) { c.HotLines = 0 },
		func(c *StackDistanceConfig) { c.FootprintLines = c.HotLines },
		func(c *StackDistanceConfig) { c.ColdProb = -0.1 },
		func(c *StackDistanceConfig) { c.ColdProb = 1 },
		func(c *StackDistanceConfig) { c.WriteFraction = 1.1 },
		func(c *StackDistanceConfig) { c.WriteFraction = -0.1 },
	}
	for i, mut := range mutations {
		c := stackCfg()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, c)
		}
	}
	c := stackCfg()
	c.Alpha = 0
	if _, err := NewStackDistance(c); err == nil {
		t.Error("NewStackDistance accepted invalid config")
	}
	// A footprint past the uint32 line-id range is refused by name, before
	// the stack would try to allocate it.
	c = stackCfg()
	overRange := uint64(maxLines) + 1
	c.FootprintLines = int(overRange)
	if _, err := NewStackDistance(c); err == nil || !strings.Contains(err.Error(), "FootprintLines") {
		t.Errorf("footprint of %d lines: error %v, want one naming FootprintLines", c.FootprintLines, err)
	}
	c.FootprintLines = int(overRange - 1)
	if err := c.Validate(); err != nil {
		t.Errorf("footprint at the id range rejected: %v", err)
	}
}

func TestStackDistanceDeterminism(t *testing.T) {
	mk := func() []trace.Access {
		g, err := NewStackDistance(stackCfg())
		if err != nil {
			t.Fatal(err)
		}
		return trace.Collect(g, 5000)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStackDistanceProperties(t *testing.T) {
	cfg := stackCfg()
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	as := trace.Collect(g, 50000)
	st := trace.Measure(as)
	// Write fraction near the configured value.
	if math.Abs(st.WriteFraction()-cfg.WriteFraction) > 0.02 {
		t.Errorf("write fraction = %v, want ≈%v", st.WriteFraction(), cfg.WriteFraction)
	}
	// All accesses line-aligned and in the region.
	for _, a := range as[:100] {
		if a.Addr%LineBytes != 0 {
			t.Fatalf("unaligned address %#x", a.Addr)
		}
	}
	// Footprint only grows (cold misses add lines).
	if g.Footprint() < cfg.FootprintLines {
		t.Errorf("footprint shrank: %d < %d", g.Footprint(), cfg.FootprintLines)
	}
}

func TestStackDistanceRegionOffset(t *testing.T) {
	cfg := stackCfg()
	cfg.Region = 1 << 40
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a := g.Next(); a.Addr < 1<<40 {
			t.Fatalf("address %#x below region", a.Addr)
		}
	}
}

// TestStackDistanceMissLaw verifies the generator's core promise without a
// cache simulator: after warmup, the fraction of accesses whose observed
// LRU stack distance is ≥ L matches the Pareto tail (L/x0)^-α — i.e. a
// fully-associative LRU cache of L lines would miss at exactly the power
// law's rate. The replay uses an exact (slice-based) LRU stack; warmup
// absorbs the cold-start transient in which pre-seeded generator lines are
// still unseen by the replay.
func TestStackDistanceMissLaw(t *testing.T) {
	cfg := stackCfg()
	cfg.WriteFraction = 0
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, n = 40000, 50000
	var stack []uint64
	missesAt := map[int]int{512: 0, 1024: 0, 2048: 0}
	replay := func(count bool, iters int) {
		for i := 0; i < iters; i++ {
			a := g.Next()
			line := a.Line(LineBytes)
			pos := -1
			for j, l := range stack {
				if l == line {
					pos = j
					break
				}
			}
			if pos == -1 {
				stack = append([]uint64{line}, stack...)
			} else {
				copy(stack[1:pos+1], stack[:pos])
				stack[0] = line
			}
			if !count {
				continue
			}
			for c := range missesAt {
				if pos == -1 || pos >= c {
					missesAt[c]++
				}
			}
		}
	}
	replay(false, warmup)
	replay(true, n)
	for _, c := range []int{512, 1024, 2048} {
		got := float64(missesAt[c]) / n
		want := math.Pow(float64(c)/float64(cfg.HotLines), -cfg.Alpha)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("miss fraction at %d lines = %.4f, want ≈%.4f", c, got, want)
		}
	}
}

func TestZipf(t *testing.T) {
	g, err := NewZipf(1<<16, 1.3, 0.25, 11, 2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	as := trace.Collect(g, 20000)
	st := trace.Measure(as)
	if math.Abs(st.WriteFraction()-0.25) > 0.02 {
		t.Errorf("write fraction = %v", st.WriteFraction())
	}
	if st.MinAddr < 1<<30 {
		t.Errorf("address below region: %#x", st.MinAddr)
	}
	if as[0].TID != 2 {
		t.Errorf("TID = %d", as[0].TID)
	}
	// Skewed popularity: the most popular line should dominate.
	counts := map[uint64]int{}
	for _, a := range as {
		counts[a.Line(LineBytes)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < len(as)/100 {
		t.Errorf("no hot line found (max count %d of %d)", max, len(as))
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.3, 0, 1, 0, 0); err == nil {
		t.Error("zero lines accepted")
	}
	if _, err := NewZipf(100, 1.0, 0, 1, 0, 0); err == nil {
		t.Error("skew 1.0 accepted (rand.Zipf needs > 1)")
	}
	if _, err := NewZipf(100, 1.5, 2, 1, 0, 0); err == nil {
		t.Error("write fraction 2 accepted")
	}
}

func TestStrided(t *testing.T) {
	g, err := NewStrided(4, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{256, 320, 384, 448, 256, 320}
	for i, w := range want {
		a := g.Next()
		if a.Addr != w {
			t.Errorf("access %d addr = %d, want %d", i, a.Addr, w)
		}
		if a.Write {
			t.Error("strided scan should be read-only")
		}
	}
	if _, err := NewStrided(0, 0, 0); err == nil {
		t.Error("zero lines accepted")
	}
}

func TestPhased(t *testing.T) {
	g, err := NewPhased(16, 64, 0.1, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	as := trace.Collect(g, 64*4)
	st := trace.Measure(as)
	// Four dwell periods ⇒ four phases ⇒ 4×16 lines (phases don't overlap).
	if st.Lines != 64 {
		t.Errorf("footprint = %d lines, want 64", st.Lines)
	}
	// Within one phase only 16 lines are touched.
	first := trace.Measure(as[:64])
	if first.Lines != 16 {
		t.Errorf("phase footprint = %d, want 16", first.Lines)
	}
	if _, err := NewPhased(0, 64, 0, 1, 0, 0); err == nil {
		t.Error("zero set size accepted")
	}
	if _, err := NewPhased(16, 0, 0, 1, 0, 0); err == nil {
		t.Error("zero dwell accepted")
	}
	if _, err := NewPhased(16, 64, 1.5, 1, 0, 0); err == nil {
		t.Error("bad write fraction accepted")
	}
}

func TestWritesPerLineConstant(t *testing.T) {
	// With WritesPerLine, the same line is always written or never.
	cfg := stackCfg()
	cfg.WritesPerLine = true
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mode := map[uint64]bool{}
	for i := 0; i < 30000; i++ {
		a := g.Next()
		if prev, ok := mode[a.Addr]; ok && prev != a.Write {
			t.Fatalf("line %#x changed write-ness", a.Addr)
		}
		mode[a.Addr] = a.Write
	}
	// And the write fraction is still near the target.
	var writes int
	for _, w := range mode {
		if w {
			writes++
		}
	}
	frac := float64(writes) / float64(len(mode))
	if math.Abs(frac-cfg.WriteFraction) > 0.03 {
		t.Errorf("per-line write fraction = %.3f, want ≈%.2f", frac, cfg.WriteFraction)
	}
}

func TestMissLawQuickAlphaSweep(t *testing.T) {
	// Lightweight version of the power-law check across α values, using
	// expected cold-fraction arithmetic instead of full replay: the
	// fraction of compulsory (new-line) accesses must be ≈ (F/x0)^-α where
	// F is the footprint.
	if testing.Short() {
		t.Skip("statistical test")
	}
	for _, alpha := range []float64{0.3, 0.5, 0.7} {
		cfg := stackCfg()
		cfg.Alpha = alpha
		cfg.Seed = 31 + int64(alpha*100)
		g, err := NewStackDistance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		startFootprint := g.Footprint()
		const n = 200000
		for i := 0; i < n; i++ {
			g.Next()
		}
		grown := g.Footprint() - startFootprint
		wantCold := math.Pow(float64(cfg.FootprintLines)/float64(cfg.HotLines), -alpha)
		gotCold := float64(grown) / n
		if math.Abs(gotCold-wantCold)/wantCold > 0.15 {
			t.Errorf("α=%v: cold fraction %.5f, want ≈%.5f", alpha, gotCold, wantCold)
		}
	}
}
