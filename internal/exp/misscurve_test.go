package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/suite"
)

// TestFig01AlphaUnchangedByProfiler pins the acceptance criterion that the
// single-pass profiler changes nothing about fig01's headline numbers: the
// quick run with the default mattson path, with the set-parallel kernel
// pinned to 4 workers, and with Options.Brute must all produce
// bit-identical fitted α values (every path sees the identical
// deterministic stream, the profiler's per-set LRU model is exact, and
// the parallel partition never splits a set).
func TestFig01AlphaUnchangedByProfiler(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick fig01 sweep")
	}
	fast, err := runFig01(context.Background(), Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	brute, err := runFig01(context.Background(), Options{Quick: true, Brute: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runFig01(context.Background(), Options{Quick: true, ProfileWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Values) != len(brute.Values) || len(par.Values) != len(brute.Values) {
		t.Fatalf("value sets differ: mattson %d, parallel %d, brute %d",
			len(fast.Values), len(par.Values), len(brute.Values))
	}
	checked := 0
	for k, bv := range brute.Values {
		fv, ok := fast.Values[k]
		if !ok {
			t.Errorf("mattson run missing value %q", k)
			continue
		}
		pv, ok := par.Values[k]
		if !ok {
			t.Errorf("parallel run missing value %q", k)
			continue
		}
		if strings.HasPrefix(k, "alpha:") {
			checked++
		}
		if fv != bv && !(math.IsNaN(fv) && math.IsNaN(bv)) {
			t.Errorf("%s: mattson %v != brute %v", k, fv, bv)
		}
		if pv != fv && !(math.IsNaN(pv) && math.IsNaN(fv)) {
			t.Errorf("%s: parallel(4) %v != mattson %v", k, pv, fv)
		}
	}
	if checked == 0 {
		t.Fatal("no fitted α values compared")
	}
}

// TestFig01FullSizeMissLaw holds fig01's full-fidelity stream to the law
// its generator is built on: a fully associative LRU cache of C lines
// misses with probability (C/256)^-α (suite.Paper's generators use 256 hot
// lines). For every power-law member of suite.Paper it runs one fully
// associative Mattson pass over exactly what fig01 feeds its sweep, warmup
// and measured window, and requires each swept size's miss ratio within 4
// binomial σ of the law. In steady state each measured access misses at C
// independently with that probability, so the bound is the sampling
// noise; a warmup that leaves the deep stack ranks cold reads high at
// 4 MB.
func TestFig01FullSizeMissLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full-fidelity fully associative sweeps")
	}
	sw := newFig01Sweep(Options{})
	fa := cachesim.Config{LineBytes: 64, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	for _, wl := range suite.Paper {
		if wl.Phased {
			continue
		}
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			gen, warmup, n, err := sw.stream(wl)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := missCurve(context.Background(), Options{}, gen, fa, sw.sizes, warmup, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				total := float64(p.Stats.Accesses)
				want := math.Pow(float64(p.SizeBytes/fa.LineBytes)/256, -wl.TargetAlpha)
				got := float64(p.Stats.Misses) / total
				z := (got - want) / math.Sqrt(want*(1-want)/total)
				t.Logf("%7d KB: miss ratio %.5f, law %.5f (%+.2f %%, z %+.2f)", p.SizeBytes>>10, got, want, 100*(got/want-1), z)
				if math.Abs(z) > 4 {
					t.Errorf("%d KB: miss ratio %.5f is %.1f σ from the law's %.5f", p.SizeBytes>>10, got, z, want)
				}
			}
		})
	}
}
