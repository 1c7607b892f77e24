package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/exp"
	"repro/internal/optimize"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// pinned are the shipped eval examples' headline core counts (their notes
// and EXPERIMENTS.md). Every response to one of these bodies must carry them.
var pinned = map[string]map[string]float64{
	"stacked-compression": {"cores@base": 11, "cores@cc": 13, "cores@lc": 16, "cores@cc+lc": 18},
	"custom-envelope":     {"cores@1x": 11, "cores@1.5x": 13, "cores@2x": 16},
	"generation-sweep":    {"BASE@16x": 24, "DRAM@16x": 47, "combined@16x": 183},
	"multiwall-sweep": {
		"dram3d@2x": 26, "dram3d@4x": 36, "dram3d@8x": 44, "dram3d@16x": 43,
		"ccdram3d@2x": 30, "ccdram3d@4x": 38, "ccdram3d@8x": 44, "ccdram3d@16x": 43,
	},
}

// referee answers bodies on an engine of its own, apart from the servers
// under test, and checks responses against those answers. Only fields the
// model determines are compared: a response's solver-cache traffic depends
// on what its engine saw before, so it is not part of the answer.
type referee struct {
	eng *scenario.Engine
	opt *optimize.Optimizer
}

func newReferee() *referee {
	eng := scenario.NewEngine()
	return &referee{eng: eng, opt: optimize.NewWithCache(eng.Cache)}
}

// check reports whether resp is the right answer to b.
func (r *referee) check(ctx context.Context, b body, resp []byte) error {
	if b.path == optimizePath {
		return r.checkOptimize(ctx, b.data, resp)
	}
	return r.checkEval(ctx, b.data, resp)
}

func (r *referee) checkEval(ctx context.Context, data, resp []byte) error {
	sp, err := scenario.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("reference parse: %w", err)
	}
	want, err := r.eng.Evaluate(ctx, sp)
	if err != nil {
		return fmt.Errorf("reference evaluate: %w", err)
	}
	var got serve.EvalResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("undecodable eval response: %w", err)
	}
	for k, v := range pinned[sp.ID] {
		if got.Values[k] != v {
			return fmt.Errorf("%s: %s = %v, pinned %v", sp.ID, k, got.Values[k], v)
		}
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("%s: %d points, reference has %d", sp.ID, len(got.Points), len(want.Points))
	}
	for i, p := range want.Points {
		g := got.Points[i]
		if g.Cores != p.Cores || g.Exact != p.Exact || g.BindingWall != p.Binding {
			return fmt.Errorf("%s: point %d is %d cores (%v, %s), reference %d (%v, %s)",
				sp.ID, i, g.Cores, g.Exact, g.BindingWall, p.Cores, p.Exact, p.Binding)
		}
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("%s: %d values, reference has %d", sp.ID, len(got.Values), len(want.Values))
	}
	for k, v := range want.Values {
		if got.Values[k] != v {
			return fmt.Errorf("%s: %s = %v, reference %v", sp.ID, k, got.Values[k], v)
		}
	}
	return nil
}

func (r *referee) checkOptimize(ctx context.Context, data, resp []byte) error {
	osp, err := scenario.ParseOptimizeSpec(data)
	if err != nil {
		return fmt.Errorf("reference parse: %w", err)
	}
	want, err := r.opt.Search(ctx, osp)
	if err != nil {
		return fmt.Errorf("reference search: %w", err)
	}
	var got serve.OptimizeResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("undecodable optimize response: %w", err)
	}
	if got.Objective != want.Objective || got.Stacks != want.Stacks || got.Candidates != want.Candidates {
		return fmt.Errorf("%s: %s over %d stacks / %d candidates, reference %s over %d / %d",
			osp.ID, got.Objective, got.Stacks, got.Candidates, want.Objective, want.Stacks, want.Candidates)
	}
	if !sameJSON(got.Best, want.Best) {
		return fmt.Errorf("%s: best design %s at %d cores, reference %s at %d", osp.ID, got.Best.Label, got.Best.Cores, want.Best.Label, want.Best.Cores)
	}
	if !sameJSON(got.Frontier, want.Frontier) {
		return fmt.Errorf("%s: Pareto frontier differs from the reference", osp.ID)
	}
	return nil
}

// sameJSON compares two values by their JSON encodings, which round-trip
// every float64 exactly.
func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// checkFig01 applies the fig01 checks the exp tests make: the fitted
// commercial-average α tracks the paper's 0.48, and the phased workload
// fits the power law worse than OLTP-1.
func checkFig01(r *exp.Result) error {
	avg, ok := r.Value("alpha:commercial-avg")
	if !ok || math.Abs(avg-0.48) > 0.1 {
		return fmt.Errorf("fig01: commercial-average α = %v, want within 0.1 of 0.48", avg)
	}
	phased, ok1 := r.Value("r2:SPEC-app (phased)")
	oltp, ok2 := r.Value("r2:OLTP-1")
	if !ok1 || !ok2 || !(phased < oltp) {
		return fmt.Errorf("fig01: phased R² %v not below OLTP-1's %v", phased, oltp)
	}
	return nil
}

// checkFig14 applies the fig14 checks the exp tests make: the shared
// fraction falls from 4 to 8 to 16 cores and stays within 8–25 %.
func checkFig14(r *exp.Result) error {
	var f [3]float64
	for i, cores := range []int{4, 8, 16} {
		v, ok := r.Value(fmt.Sprintf("shared%%@%dcores", cores))
		if !ok || v < 8 || v > 25 {
			return fmt.Errorf("fig14: shared fraction at %d cores = %v%%, want 8–25%%", cores, v)
		}
		f[i] = v
	}
	if !(f[0] > f[1] && f[1] > f[2]) {
		return fmt.Errorf("fig14: shared fraction not falling with cores: %v", f)
	}
	return nil
}
