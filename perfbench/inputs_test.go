package main

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/optimize"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/technique"
)

const testExamples = "../examples/scenarios"

func testPool(t *testing.T, seed uint64) []body {
	t.Helper()
	ex, err := loadExamples(testExamples)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hotPool(seed, ex)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func testCold(t *testing.T, seed uint64, n int) []body {
	t.Helper()
	bodies, err := newColdStream(seed).next(n)
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}

// parsed is one body after the handler's parse step.
type parsed struct {
	eval *scenario.Spec
	opt  *scenario.OptimizeSpec
}

func parseBody(t *testing.T, b body) parsed {
	t.Helper()
	if b.path == optimizePath {
		osp, err := scenario.ParseOptimizeSpec(b.data)
		if err != nil {
			t.Fatalf("optimize body refused: %v\n%s", err, b.data)
		}
		return parsed{opt: osp}
	}
	sp, err := scenario.ParseSpec(b.data)
	if err != nil {
		t.Fatalf("eval body refused: %v\n%s", err, b.data)
	}
	return parsed{eval: sp}
}

func TestGeneratedBodiesEvaluate(t *testing.T) {
	eng := scenario.NewEngine()
	opt := optimize.NewWithCache(eng.Cache)
	bodies := append(testPool(t, 7), testCold(t, 7, 1000)...)
	for _, b := range bodies {
		p := parseBody(t, b)
		var err error
		if p.opt != nil {
			_, err = opt.Search(context.Background(), p.opt)
		} else {
			_, err = eng.Evaluate(context.Background(), p.eval)
		}
		if err != nil {
			t.Fatalf("reference evaluation failed: %v\n%s", err, b.data)
		}
	}
}

func TestInputsCoverCatalogAndWalls(t *testing.T) {
	techniques := map[string]bool{}
	walls := map[string]bool{}
	addEnv := func(envs []scenario.Envelope) {
		for _, e := range envs {
			walls[e.Kind] = true
		}
	}
	for _, b := range append(testPool(t, 3), testCold(t, 3, 500)...) {
		p := parseBody(t, b)
		if p.opt != nil {
			for _, e := range p.opt.Catalog {
				techniques[e.Name] = true
			}
			addEnv(p.opt.Envelopes)
			continue
		}
		if p.eval.Budget != (scenario.Budget{}) {
			walls["bandwidth"] = true
		}
		addEnv(p.eval.Envelopes)
		for _, c := range p.eval.Cases {
			for _, s := range c.Stack {
				techniques[s.Name] = true
			}
		}
	}
	for _, b := range technique.Builders {
		if !techniques[b.Name] {
			t.Errorf("technique %s never drawn", b.Name)
		}
	}
	for _, k := range []string{"bandwidth", "thermal", "energy"} {
		if !walls[k] {
			t.Errorf("wall kind %s never drawn", k)
		}
	}
}

func TestSeedGivesIdenticalStream(t *testing.T) {
	a, b := testCold(t, 11, 300), testCold(t, 11, 300)
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("body %d differs between two streams of one seed", i)
		}
	}
	pa, pb := testPool(t, 11), testPool(t, 11)
	for i := range pa {
		if !bytes.Equal(pa[i].data, pb[i].data) {
			t.Fatalf("pool body %d differs between two pools of one seed", i)
		}
	}
	if other := testCold(t, 12, 1); bytes.Equal(other[0].data, a[0].data) {
		t.Fatal("two seeds gave the same first body")
	}
}

func TestColdFingerprintsNeverRepeat(t *testing.T) {
	seen := map[string]int{}
	for i, b := range testCold(t, 5, 3000) {
		p := parseBody(t, b)
		var fp string
		var err error
		if p.opt != nil {
			fp, err = serve.FingerprintOptimizeSpec(p.opt)
		} else {
			fp, err = serve.FingerprintSpec(p.eval)
		}
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("bodies %d and %d share fingerprint %s", j, i, fp)
		}
		seen[fp] = i
	}
}

func TestHotPoolFitsResponseCache(t *testing.T) {
	pool := testPool(t, 1)
	if len(pool) != hotPoolSize {
		t.Fatalf("pool holds %d bodies, want %d", len(pool), hotPoolSize)
	}
	seen := map[string]bool{}
	for _, b := range pool {
		fp, err := serve.FingerprintSpec(parseBody(t, b).eval)
		if err != nil {
			t.Fatal(err)
		}
		seen[fp] = true
	}
	if len(seen) != hotPoolSize {
		t.Fatalf("pool has %d distinct fingerprints, want %d", len(seen), hotPoolSize)
	}
}
