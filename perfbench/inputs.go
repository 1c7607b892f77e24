package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/scenario"
	"repro/internal/technique"
)

// Routes the benchmark sends bodies to.
const (
	evalPath     = "/v1/eval"
	optimizePath = "/v1/optimize"
)

// hotPoolSize is the number of bodies in the serve-hot pool. The response
// cache holds 1024 entries in 16 shards of 64; 256 fingerprints leave every
// shard far below its capacity, so the warmed pool stays resident.
const hotPoolSize = 256

// coldOptimizeEvery makes every fifth serve-cold body an optimize query.
const coldOptimizeEvery = 5

// Generator streams. Each input family draws from its own PCG stream, so
// the hot pool and the cold stream never share a body.
const (
	streamHot  = 1
	streamCold = 2
)

// shippedExamples are the eval examples the hot pool carries verbatim.
var shippedExamples = []string{
	"stacked-compression.json",
	"custom-envelope.json",
	"generation-sweep.json",
	"multiwall-sweep.json",
}

// body is one request the load generator sends.
type body struct {
	path string
	data []byte
}

// loadExamples reads the shipped eval examples from dir.
func loadExamples(dir string) ([]body, error) {
	out := make([]body, 0, len(shippedExamples))
	for _, name := range shippedExamples {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("reading shipped example: %w", err)
		}
		out = append(out, body{path: evalPath, data: data})
	}
	return out, nil
}

// hotPool is the serve-hot and fleet-hot pool: the shipped examples
// followed by generated eval specs, hotPoolSize bodies in all.
func hotPool(seed uint64, examples []body) ([]body, error) {
	g := newSpecGen(seed, streamHot)
	pool := append([]body(nil), examples...)
	for len(pool) < hotPoolSize {
		data, err := json.Marshal(g.evalSpec("hot"))
		if err != nil {
			return nil, fmt.Errorf("hot pool: %w", err)
		}
		pool = append(pool, body{path: evalPath, data: data})
	}
	return pool, nil
}

// coldStream is the serve-cold input: an endless seeded sequence of eval
// and optimize bodies. Every body carries the same id as its siblings, so
// bodies differ only in answer-changing fields: a fingerprint that dropped
// one of them would turn misses into hits, which the identity guard
// reports.
type coldStream struct {
	g *specGen
	n int
}

func newColdStream(seed uint64) *coldStream {
	return &coldStream{g: newSpecGen(seed, streamCold)}
}

// next returns the following n bodies of the stream.
func (s *coldStream) next(n int) ([]body, error) {
	out := make([]body, n)
	for i := range out {
		var (
			b   body
			err error
		)
		if s.n%coldOptimizeEvery == coldOptimizeEvery-1 {
			b.path = optimizePath
			b.data, err = json.Marshal(s.g.optimizeSpec("cold-optimize"))
		} else {
			b.path = evalPath
			b.data, err = json.Marshal(s.g.evalSpec("cold-eval"))
		}
		if err != nil {
			return nil, fmt.Errorf("cold stream: %w", err)
		}
		s.n++
		out[i] = b
	}
	return out, nil
}

// specGen draws specs whose every parameter lies inside the domain the
// technique registry and the wall models document, so no body is refused.
// The shape of each spec (axis, walls, case count, stack sizes; catalog
// size, stack bound and split grid) cycles with the spec's index, and only
// techniques and continuous parameters are drawn: every stretch of a stream
// then costs about the same to answer, whatever the seed.
type specGen struct {
	r          *rand.Rand
	evals, opt int // specs drawn so far, the index their shape cycles with
}

func newSpecGen(seed, stream uint64) *specGen {
	return &specGen{r: rand.New(rand.NewPCG(seed, stream))}
}

func (g *specGen) uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

func (g *specGen) coin() bool { return g.r.IntN(2) == 0 }

// technique draws one catalog technique with its primary parameter spread
// over the registry's pessimistic..optimistic range (Table 2).
func (g *specGen) technique(b technique.Builder) technique.Spec {
	lo := b.Defaults(technique.Pessimistic)[b.Key]
	hi := b.Defaults(technique.Optimistic)[b.Key]
	if lo > hi {
		lo, hi = hi, lo
	}
	return technique.Spec{Name: b.Name, Params: map[string]float64{b.Key: g.uniform(lo, hi)}}
}

// pick draws n distinct catalog techniques in registry order. Shared-cache
// and private-cache sharing model one cache two exclusive ways, so a draw
// holding both keeps only the first.
func (g *specGen) pick(n int) []technique.Builder {
	idx := g.r.Perm(len(technique.Builders))[:n]
	sort.Ints(idx)
	out := make([]technique.Builder, 0, n)
	sharing := false
	for _, j := range idx {
		b := technique.Builders[j]
		if b.Name == "Shr" || b.Name == "ShrPriv" {
			if sharing {
				continue
			}
			sharing = true
		}
		out = append(out, b)
	}
	return out
}

// stack draws n distinct techniques from the whole catalog.
func (g *specGen) stack(n int) []technique.Spec {
	var out []technique.Spec
	for _, b := range g.pick(n) {
		out = append(out, g.technique(b))
	}
	return out
}

// walls draws limits for constraint shape k of the four the solver
// supports: the legacy single bandwidth budget, or a bandwidth wall joined
// by a thermal wall, an energy wall, or both.
func (g *specGen) walls(k int) (scenario.Budget, []scenario.Envelope) {
	bw := scenario.Envelope{Kind: "bandwidth", Limit: g.uniform(1, 2)}
	thermal := func() scenario.Envelope {
		return scenario.Envelope{Kind: "thermal", Limit: g.uniform(3, 4.5), Growth: g.uniform(1, 1.35)}
	}
	energy := func() scenario.Envelope {
		return scenario.Envelope{Kind: "energy", Limit: g.uniform(4, 6), Growth: g.uniform(1, 1.1)}
	}
	switch k % 4 {
	case 0:
		return scenario.Budget{Envelope: bw.Limit, Compound: g.coin()}, nil
	case 1:
		return scenario.Budget{}, []scenario.Envelope{bw, thermal()}
	case 2:
		return scenario.Budget{}, []scenario.Envelope{bw, energy()}
	default:
		return scenario.Budget{}, []scenario.Envelope{bw, thermal(), energy()}
	}
}

// axis is chip-size sweep shape k of nine, of one to four points.
func axis(k int) scenario.Axis {
	v := (k / 3) % 3
	switch k % 3 {
	case 0:
		return scenario.Axis{N2: [][]float64{{32}, {16, 64}, {24, 48, 96}}[v]}
	case 1:
		return scenario.Axis{Ratios: [][]float64{{2}, {2, 8}, {4, 16}}[v]}
	default:
		return scenario.Axis{Generations: 2 + v}
	}
}

// evalSpec draws one eval spec of one to three cases.
func (g *specGen) evalSpec(id string) *scenario.Spec {
	k := g.evals
	g.evals++
	sp := &scenario.Spec{ID: id, Alpha: g.uniform(0.3, 0.7), Axis: axis(k)}
	sp.Budget, sp.Envelopes = g.walls(k / 9)
	ncases := 1 + (k/36)%3
	for c := range ncases {
		cs := scenario.Case{Stack: g.stack((k + c) % 4), ValueKey: fmt.Sprintf("c%d", c)}
		if g.r.IntN(4) == 0 {
			cs.Alpha = g.uniform(0.3, 0.7)
		}
		sp.Cases = append(sp.Cases, cs)
	}
	return sp
}

// optimizeSpec draws one inverse query over a costed five-to-seven entry
// catalog, shaped like the shipped optimize-area-budget example.
func (g *specGen) optimizeSpec(id string) *scenario.OptimizeSpec {
	k := g.opt
	g.opt++
	osp := &scenario.OptimizeSpec{
		ID:            id,
		N2:            g.uniform(16, 64),
		Alpha:         g.uniform(0.3, 0.7),
		Objective:     scenario.ObjectiveCores,
		MaxTechniques: 2 + (k/3)%2,
		Split:         scenario.SplitRange{Min: 0.25, Max: 4, Points: 4 + 2*((k/6)%3)},
	}
	// Optimize specs cycle through the three multi-wall shapes only.
	_, osp.Envelopes = g.walls(1 + (k/18)%3)
	for _, b := range g.pick(5 + k%3) {
		t := g.technique(b)
		osp.Catalog = append(osp.Catalog, scenario.CatalogEntry{Name: t.Name, Params: t.Params, Cost: g.uniform(0.5, 6)})
	}
	return osp
}
