package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func sharedCfg() SharedPrivateConfig {
	return SharedPrivateConfig{
		Threads:          8,
		SharedLines:      4096,
		PrivateLines:     8192,
		SharedAccessFrac: 0.3,
		Skew:             1.2,
		WriteFraction:    0.2,
		Seed:             21,
	}
}

func TestSharedPrivateValidate(t *testing.T) {
	good := sharedCfg()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		mut   func(*SharedPrivateConfig)
		field string // what the error must name
	}{
		{"no threads", func(c *SharedPrivateConfig) { c.Threads = 0 }, "threads"},
		{"129 threads", func(c *SharedPrivateConfig) { c.Threads = 129 }, "threads"},
		{"no shared lines", func(c *SharedPrivateConfig) { c.SharedLines = 0 }, "regions"},
		{"no private lines", func(c *SharedPrivateConfig) { c.PrivateLines = 0 }, "regions"},
		{"shared fraction below 0", func(c *SharedPrivateConfig) { c.SharedAccessFrac = -0.1 }, "SharedAccessFrac"},
		{"shared fraction above 1", func(c *SharedPrivateConfig) { c.SharedAccessFrac = 1.1 }, "SharedAccessFrac"},
		{"shared fraction NaN", func(c *SharedPrivateConfig) { c.SharedAccessFrac = math.NaN() }, "SharedAccessFrac"},
		{"skew 1", func(c *SharedPrivateConfig) { c.Skew = 1.0 }, "Skew"},
		{"skew 1 + 2^-52", func(c *SharedPrivateConfig) { c.Skew = 1 + 0x1p-52 }, "Skew"},
		{"skew just below the floor", func(c *SharedPrivateConfig) { c.Skew = math.Nextafter(minZipfSkew, 0) }, "Skew"},
		{"skew +Inf", func(c *SharedPrivateConfig) { c.Skew = math.Inf(1) }, "Skew"},
		{"skew NaN", func(c *SharedPrivateConfig) { c.Skew = math.NaN() }, "Skew"},
		{"write fraction 2", func(c *SharedPrivateConfig) { c.WriteFraction = 2 }, "WriteFraction"},
		{"write fraction NaN", func(c *SharedPrivateConfig) { c.WriteFraction = math.NaN() }, "WriteFraction"},
	} {
		c := sharedCfg()
		tc.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.field)
		}
		if _, err := NewSharedPrivate(c); err == nil {
			t.Errorf("%s: constructed", tc.name)
		}
	}
}

func TestSharedPrivateRoundRobin(t *testing.T) {
	g, err := NewSharedPrivate(sharedCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a := g.Next()
		if int(a.TID) != i%8 {
			t.Fatalf("access %d TID = %d, want %d", i, a.TID, i%8)
		}
	}
}

// TestSharedPrivateRegions checks that a private access lands in the
// issuing thread's own region and that the shared fraction holds, on
// sharedCfg and on two threads' 11-line regions at the smallest accepted
// skew.
func TestSharedPrivateRegions(t *testing.T) {
	nearOne := SharedPrivateConfig{
		Threads: 2, SharedLines: 11, PrivateLines: 11,
		SharedAccessFrac: 0.5, Skew: minZipfSkew, Seed: 4,
	}
	for _, cfg := range []SharedPrivateConfig{sharedCfg(), nearOne} {
		g, err := NewSharedPrivate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharedSeen, privateSeen := 0, 0
		for i := 0; i < 100000; i++ {
			a := g.Next()
			if g.IsSharedAddr(a.Addr) {
				sharedSeen++
				continue
			}
			privateSeen++
			// A private access must land in the issuing thread's own region.
			line := a.Line(LineBytes)
			rel := line - cfg.SharedLines
			owner := rel / cfg.PrivateLines
			if owner != uint64(a.TID) {
				t.Fatalf("skew %g: thread %d touched thread %d's private region", cfg.Skew, a.TID, owner)
			}
		}
		frac := float64(sharedSeen) / float64(sharedSeen+privateSeen)
		if math.Abs(frac-cfg.SharedAccessFrac) > 0.01 {
			t.Errorf("skew %g: shared access fraction = %.3f, want ≈%.2f", cfg.Skew, frac, cfg.SharedAccessFrac)
		}
	}
}

func TestSharedPrivateFootprint(t *testing.T) {
	cfg := sharedCfg()
	g, err := NewSharedPrivate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.SharedLines + uint64(cfg.Threads)*cfg.PrivateLines
	if got := g.TotalFootprintLines(); got != want {
		t.Errorf("footprint = %d, want %d", got, want)
	}
	// The paper's Fig 14 premise: footprint grows with thread count while
	// the shared region stays fixed.
	cfg2 := cfg
	cfg2.Threads = 16
	g2, err := NewSharedPrivate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.TotalFootprintLines() <= g.TotalFootprintLines() {
		t.Error("footprint must grow with threads")
	}
	if diff := g2.TotalFootprintLines() - g.TotalFootprintLines(); diff != 8*cfg.PrivateLines {
		t.Errorf("growth = %d lines, want %d (private only)", diff, 8*cfg.PrivateLines)
	}
}

func TestSharedPrivateDeterminism(t *testing.T) {
	mk := func() []trace.Access {
		g, err := NewSharedPrivate(sharedCfg())
		if err != nil {
			t.Fatal(err)
		}
		return trace.Collect(g, 2000)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}
