package exp

import (
	"context"

	"repro/internal/cachesim"
	"repro/internal/mattson"
	"repro/internal/robust"
	"repro/internal/trace"
)

// The simulation-backed experiments produce miss curves through these
// dispatch helpers: the single-pass mattson profiler by default (one
// streaming pass over the workload, no trace materialization), or the
// brute-force per-size simulator when Options.Brute is set — the escape
// hatch that also serves as the cross-validation baseline in tests.
//
// Each helper polls the context at batch boundaries (via the ctx-aware
// sweep entry points) and fires the "exp.trace" fault-injection point
// before touching the workload stream, so trace-corruption faults can be
// forced per experiment.

// missCurve sweeps sizes over n accesses drawn from gen (first warmup
// excluded), streaming through the mattson profiler unless o.Brute forces
// the materialize-and-simulate path.
func missCurve(ctx context.Context, o Options, gen trace.Generator, base cachesim.Config, sizes []int, warmup, n int) ([]cachesim.CurvePoint, error) {
	if err := robust.Hit(ctx, "exp.trace"); err != nil {
		return nil, err
	}
	if o.Brute {
		return cachesim.MissCurveCtx(ctx, trace.Collect(gen, n), base, sizes, warmup)
	}
	return mattson.MissCurveFastParallel(ctx, gen, base, sizes, warmup, n, o.ProfileWorkers)
}

// missCurveTrace is the variant for drivers that replay one materialized
// trace across several configurations: eligible configs stream the slice
// through the profiler via trace.Replay (no per-size replay of the
// simulator), the rest go to the brute simulator directly — avoiding the
// pointless re-materialization MissCurveFastParallel's internal fallback would do.
func missCurveTrace(ctx context.Context, o Options, tr []trace.Access, base cachesim.Config, sizes []int, warmup int) ([]cachesim.CurvePoint, error) {
	if err := robust.Hit(ctx, "exp.trace"); err != nil {
		return nil, err
	}
	if o.Brute || !mattson.Eligible(base) {
		return cachesim.MissCurveCtx(ctx, tr, base, sizes, warmup)
	}
	rep, err := trace.NewReplayer(tr)
	if err != nil {
		return nil, err
	}
	return mattson.MissCurveFastParallel(ctx, rep, base, sizes, warmup, len(tr), o.ProfileWorkers)
}

// runStats measures one configuration's post-warmup Stats over n accesses
// from gen — the single-size analogue of missCurve, used where a driver
// needs one cache's full traffic accounting rather than a curve.
func runStats(ctx context.Context, o Options, gen trace.Generator, cfg cachesim.Config, warmup, n int) (cachesim.Stats, error) {
	if err := robust.Hit(ctx, "exp.trace"); err != nil {
		return cachesim.Stats{}, err
	}
	if !o.Brute && mattson.Eligible(cfg) && cfg.Assoc != 0 {
		pts, err := mattson.MissCurveFastParallel(ctx, gen, cfg, []int{cfg.SizeBytes}, warmup, n, o.ProfileWorkers)
		if err != nil {
			return cachesim.Stats{}, err
		}
		return pts[0].Stats, nil
	}
	c, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Stats{}, err
	}
	return cachesim.RunTraceCtx(ctx, c, trace.Collect(gen, n), warmup)
}
