package workload_test

import (
	"math"
	"testing"

	"repro/internal/suite"
	"repro/internal/workload"
)

// TestWriteCutMatchesFloat checks the per-line write coin's integer cut
// against the float comparison it replaces, float64(h)/10^6 < frac, for
// every residue h in [0, 10^6): at every suite.Paper write fraction, at
// 0, 1, 1e-6 and 0.5, and at 0.3 and both its float64 neighbours.
func TestWriteCutMatchesFloat(t *testing.T) {
	fracs := []float64{0, 1, 1e-6, 0.5, math.Nextafter(0.3, 0), 0.3, math.Nextafter(0.3, 1)}
	for _, wl := range suite.Paper {
		fracs = append(fracs, wl.WriteFraction)
	}
	for _, frac := range fracs {
		cut := workload.WriteCut(frac)
		for h := uint64(0); h < 1_000_000; h++ {
			if got, want := h < cut, float64(h)/1_000_000 < frac; got != want {
				t.Fatalf("write fraction %v: residue %d writes %v by the cut %d, %v by the float test", frac, h, got, cut, want)
			}
		}
	}
}
