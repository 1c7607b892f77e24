package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/suite"
)

// Fixed sizes of one round's measured list. Each round starts a fresh
// stack, so both sides of a comparison serve the same requests per server
// and the unbounded solver memo grows by the same amount.
const (
	hotRoundRequests   = 8192
	coldRoundRequests  = 1024
	fleetRoundRequests = 4096
	// coldCheckEvery samples the serve-cold responses checked against
	// the referee.
	coldCheckEvery = 8
)

// workloadNames are the workloads this program runs. BENCHMARK.json
// bounds all but serve-cold, whose figures drift with the host by more
// than a bound allows; its layers are measured in every traced run.
var workloadNames = []string{"serve-hot", "serve-cold", "fleet-hot", "reproduce"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	conns    int
	examples string // directory of the shipped eval examples
}

// tally accumulates one workload's outcome over every round.
type tally struct {
	attempted, failed int
	lat               []time.Duration // every measured operation's latency
	roundWall         []float64       // seconds to run one round's list
	roundRate         []float64       // successful operations per second, per round
	roundP50          []float64       // median latency per round, ms
	roundP99          []float64       // 99th-percentile latency per round, ms
	roundCPU          []float64       // process CPU seconds per round's measured window
	roundOps          []int           // operations per round
	roundRSS          []float64       // peak RSS per round, MB
	setups            []float64       // wall seconds from round start to its first measured operation
	setupCPU          []float64       // process CPU seconds over the same span
	refused           int             // 429 responses
	cache             map[string]int  // X-Bandwall-Cache in measured windows
	replicas          map[string]int  // X-Bandwall-Replica in the current round's window
	roundSkew         []float64       // busiest replica's share over an even share, per round
	attempts          int             // summed X-Bandwall-Attempts
	hedges            uint64
	errs              []string
	guards            []string
	notes             []string
}

func newTally() *tally {
	return &tally{cache: map[string]int{}, replicas: map[string]int{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (t *tally) fail(format string, a ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, a...))
	}
}

// observe records one measured request; it reports whether the request
// got a 200 it can check further.
func (t *tally) observe(r reply) bool {
	t.attempted++
	t.lat = append(t.lat, r.lat)
	if r.err != nil {
		t.fail("transport: %v", r.err)
		return false
	}
	if r.status == http.StatusTooManyRequests {
		t.refused++
	}
	t.cache[r.cache]++
	if r.replica != "" {
		t.replicas[r.replica]++
	}
	t.attempts += r.attempts
	if r.status != http.StatusOK {
		t.fail("status %d: %.200s", r.status, r.body)
		return false
	}
	return true
}

// merge folds per-worker tallies into t.
func (t *tally) merge(parts []*tally) {
	for _, p := range parts {
		t.attempted += p.attempted
		t.failed += p.failed
		t.lat = append(t.lat, p.lat...)
		t.refused += p.refused
		for k, v := range p.cache {
			t.cache[k] += v
		}
		for k, v := range p.replicas {
			t.replicas[k] += v
		}
		t.attempts += p.attempts
		for _, e := range p.errs {
			if len(t.errs) < 5 {
				t.errs = append(t.errs, e)
			}
		}
	}
}

func newTallies(n int) []*tally {
	ts := make([]*tally, n)
	for i := range ts {
		ts[i] = newTally()
	}
	return ts
}

// endRound records one round's measured window: its wall and CPU time,
// and the rate and latency percentiles of the operations observed since
// opsBefore.
func (t *tally) endRound(wall, cpu time.Duration, okBefore, opsBefore int) {
	lat := append([]time.Duration(nil), t.lat[opsBefore:]...)
	sortDurations(lat)
	t.roundWall = append(t.roundWall, wall.Seconds())
	t.roundRate = append(t.roundRate, float64(t.ok()-okBefore)/wall.Seconds())
	t.roundP50 = append(t.roundP50, ms(percentile(lat, 0.50)))
	t.roundP99 = append(t.roundP99, ms(percentile(lat, 0.99)))
	t.roundCPU = append(t.roundCPU, cpu.Seconds())
	t.roundOps = append(t.roundOps, len(lat))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (t *tally) ok() int { return t.attempted - t.failed }

// setupDone records a round's set-up, which began at start and startCPU.
func (t *tally) setupDone(start time.Time, startCPU time.Duration) {
	t.setups = append(t.setups, time.Since(start).Seconds())
	t.setupCPU = append(t.setupCPU, (cpuTime() - startCPU).Seconds())
}

// runWorkload runs cfg.workload for cfg.seconds in whole rounds.
func runWorkload(ctx context.Context, cfg config) (*tally, error) {
	var round func(*tally) error
	switch cfg.workload {
	case "serve-hot", "fleet-hot":
		in, err := newHotInputs(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.workload == "serve-hot" {
			round = func(t *tally) error { return hotRound(ctx, cfg, in, t) }
		} else {
			round = func(t *tally) error { return fleetRound(ctx, cfg, in, t) }
		}
	case "serve-cold":
		cold := newColdStream(cfg.seed)
		round = func(t *tally) error { return coldRound(ctx, cfg, cold, t) }
	case "reproduce":
		round = func(t *tally) error { return reproduceRound(ctx, cfg, t) }
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	t := newTally()
	deadline := time.Now().Add(cfg.seconds)
	for len(t.roundWall) == 0 || time.Now().Before(deadline) {
		// Each round starts from a returned heap and a fresh high-water
		// mark, so its peak RSS is its own.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		if err := round(t); err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		t.roundRSS = append(t.roundRSS, rss)
	}
	t.applyGuards(cfg.workload)
	return t, nil
}

// applyGuards records the identity guards: a run that breaks its
// workload's definition is invalid, not fast.
func (t *tally) applyGuards(workload string) {
	if t.refused > 0 {
		t.guards = append(t.guards, fmt.Sprintf("%d requests were refused with 429", t.refused))
	}
	switch workload {
	case "serve-hot":
		if hits := t.cache["hit"]; hits != t.attempted {
			t.guards = append(t.guards, fmt.Sprintf("serve-hot: %d of %d requests were not cache hits", t.attempted-hits, t.attempted))
		}
	case "serve-cold":
		if hits := t.cache["hit"] + t.cache["shared"]; hits != 0 {
			t.guards = append(t.guards, fmt.Sprintf("serve-cold: %d of %d requests were answered from the response cache or a shared flight", hits, t.attempted))
		}
	}
}

// hotInputs is the serve-hot and fleet-hot input: the pool, the measured
// order over it, and the referee's answers.
type hotInputs struct {
	pool  []body
	order []int
	ref   *referee
}

func newHotInputs(cfg config) (*hotInputs, error) {
	ex, err := loadExamples(cfg.examples)
	if err != nil {
		return nil, err
	}
	pool, err := hotPool(cfg.seed, ex)
	if err != nil {
		return nil, err
	}
	g := newSpecGen(cfg.seed, streamHot)
	order := make([]int, max(hotRoundRequests, fleetRoundRequests))
	for i := range order {
		order[i] = g.r.IntN(len(pool))
	}
	return &hotInputs{pool: pool, order: order, ref: newReferee()}, nil
}

// warmed is a pool's answers after warming: body and serving replica.
type warmed struct {
	body    [][]byte
	replica []string
}

// warmPasses bounds the passes warm makes over bodies not yet answered
// from a response cache; a filled cache answers on the second.
const warmPasses = 5

// warm sends every pool body until each has been answered from a response
// cache, and keeps those answers.
func warm(ws []*worker, url string, pool []body) (warmed, error) {
	w := warmed{body: make([][]byte, len(pool)), replica: make([]string, len(pool))}
	todo := make([]int, len(pool))
	for i := range todo {
		todo[i] = i
	}
	errs := make([]error, len(pool))
	for pass := 0; pass < warmPasses && len(todo) > 0; pass++ {
		hit := make([]bool, len(todo))
		closedLoop(ws, len(todo), func(wk *worker, _ int, j int) {
			i := todo[j]
			r := wk.post(url, pool[i])
			switch {
			case r.err != nil:
				errs[i] = r.err
			case r.status != http.StatusOK:
				errs[i] = fmt.Errorf("status %d: %.200s", r.status, r.body)
			case r.cache == "hit":
				hit[j] = true
				w.body[i] = bytes.Clone(r.body)
				w.replica[i] = r.replica
			}
		})
		var next []int
		for j, i := range todo {
			if errs[i] != nil {
				return w, fmt.Errorf("warming pool body %d: %w", i, errs[i])
			}
			if !hit[j] {
				next = append(next, i)
			}
		}
		todo = next
	}
	if len(todo) > 0 {
		return w, fmt.Errorf("warming: %d pool bodies never answered from a cache", len(todo))
	}
	return w, nil
}

// warmStack fills every replica's response cache with the whole pool and
// reads the answers back through the stack's entry. Behind a gateway each
// replica is filled directly: filled through the gateway, hedges would race
// the owners' solves, so set-up cost would follow the host's latency tail.
func warmStack(ws []*worker, st *stack, pool []body) (warmed, error) {
	if len(st.urls) > 1 {
		for _, u := range st.urls {
			if _, err := warm(ws, u, pool); err != nil {
				return warmed{}, err
			}
		}
	}
	return warm(ws, st.entryURL, pool)
}

// checkWarmed holds every warmed answer to the referee and counts each
// wrong one as a failure: the measured requests are compared against these.
func checkWarmed(ctx context.Context, in *hotInputs, w warmed, t *tally) {
	for i, b := range in.pool {
		if err := in.ref.check(ctx, b, w.body[i]); err != nil {
			t.fail("pool body %d: %v", i, err)
		}
	}
}

// hotRound is one serve-hot round: a fresh replica, the pool warmed into
// its response cache, then the measured list of pool requests.
func hotRound(ctx context.Context, cfg config, in *hotInputs, t *tally) error {
	start, startCPU := time.Now(), cpuTime()
	st, err := startStack(1, false)
	if err != nil {
		return err
	}
	hc := newClient(cfg.conns)
	// A drain error after the window changes no answer the run checked.
	defer func() { hc.CloseIdleConnections(); _ = st.close() }()
	ws := newWorkers(hc, cfg.conns)
	w, err := warmStack(ws, st, in.pool)
	if err != nil {
		return err
	}
	t.setupDone(start, startCPU)
	checkWarmed(ctx, in, w, t)

	okBefore, opsBefore := t.ok(), t.attempted
	parts := newTallies(len(ws))
	order := in.order[:hotRoundRequests]
	cpu0 := cpuTime()
	wall := closedLoop(ws, len(order), func(wk *worker, wi, i int) {
		idx := order[i]
		r := wk.post(st.entryURL, in.pool[idx])
		p := parts[wi]
		if p.observe(r) && !bytes.Equal(r.body, w.body[idx]) {
			p.fail("pool body %d: answer differs from its checked answer", idx)
		}
	})
	cpu := cpuTime() - cpu0
	t.merge(parts)
	t.endRound(wall, cpu, okBefore, opsBefore)
	return nil
}

// coldRound is one serve-cold round: a fresh replica and the next
// coldRoundRequests bodies of the stream, none seen before.
func coldRound(ctx context.Context, cfg config, cold *coldStream, t *tally) error {
	bodies, err := cold.next(coldRoundRequests)
	if err != nil {
		return err
	}
	start, startCPU := time.Now(), cpuTime()
	st, err := startStack(1, false)
	if err != nil {
		return err
	}
	hc := newClient(cfg.conns)
	// A drain error after the window changes no answer the run checked.
	defer func() { hc.CloseIdleConnections(); _ = st.close() }()
	ws := newWorkers(hc, cfg.conns)
	if err := openConns(ws, st.entryURL); err != nil {
		return err
	}
	t.setupDone(start, startCPU)

	okBefore, opsBefore := t.ok(), t.attempted
	parts := newTallies(len(ws))
	sampled := make([][]byte, len(bodies))
	cpu0 := cpuTime()
	wall := closedLoop(ws, len(bodies), func(wk *worker, wi, i int) {
		r := wk.post(st.entryURL, bodies[i])
		if parts[wi].observe(r) && i%coldCheckEvery == 0 {
			sampled[i] = bytes.Clone(r.body)
		}
	})
	cpu := cpuTime() - cpu0
	t.merge(parts)
	checkSampled(ctx, newReferee(), bodies, sampled, t)
	t.endRound(wall, cpu, okBefore, opsBefore)
	return nil
}

// checkSampled holds the sampled answers (nil where not sampled) to the
// referee and counts each wrong one as a failure.
func checkSampled(ctx context.Context, ref *referee, bodies []body, sampled [][]byte, t *tally) {
	for i, got := range sampled {
		if got == nil {
			continue
		}
		if err := ref.check(ctx, bodies[i], got); err != nil {
			t.fail("cold body %d: %v", i, err)
		}
	}
}

// openConns has every worker open its connection before a window starts.
func openConns(ws []*worker, url string) error {
	errs := make([]error, len(ws))
	closedLoop(ws, len(ws), func(wk *worker, wi, _ int) { errs[wi] = wk.get(url, "/healthz") })
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("opening connection: %w", err)
		}
	}
	return nil
}

// fleetRound is one fleet-hot round: two fresh replicas behind a fresh
// gateway, both holding the warmed pool, then the measured list through
// the gateway.
func fleetRound(ctx context.Context, cfg config, in *hotInputs, t *tally) error {
	start, startCPU := time.Now(), cpuTime()
	st, err := startStack(2, true)
	if err != nil {
		return err
	}
	hc := newClient(cfg.conns)
	// A drain error after the window changes no answer the run checked.
	defer func() { hc.CloseIdleConnections(); _ = st.close() }()
	ws := newWorkers(hc, cfg.conns)
	w, err := warmStack(ws, st, in.pool)
	if err != nil {
		return err
	}
	t.setupDone(start, startCPU)
	checkWarmed(ctx, in, w, t)
	for i, b := range in.pool {
		if err := sameAsReplica(ws[0], b, w.replica[i], w.body[i]); err != nil {
			t.fail("pool body %d: %v", i, err)
		}
	}

	hedges := st.reg.Counter(fleet.MetricHedges)
	hedgesBefore := hedges.Value()
	okBefore, opsBefore := t.ok(), t.attempted
	parts := newTallies(len(ws))
	type moved struct {
		idx     int
		replica string
		body    []byte
	}
	movedBy := make([][]moved, len(ws))
	order := in.order[:fleetRoundRequests]
	cpu0 := cpuTime()
	wall := closedLoop(ws, len(order), func(wk *worker, wi, i int) {
		idx := order[i]
		r := wk.post(st.entryURL, in.pool[idx])
		switch {
		case !parts[wi].observe(r):
		case r.replica == w.replica[idx]:
			if !bytes.Equal(r.body, w.body[idx]) {
				parts[wi].fail("pool body %d: answer differs from replica %s's", idx, r.replica)
			}
		default: // a hedge answered from the other replica: checked below
			movedBy[wi] = append(movedBy[wi], moved{idx, r.replica, bytes.Clone(r.body)})
		}
	})
	cpu := cpuTime() - cpu0
	t.hedges += hedges.Value() - hedgesBefore
	t.replicas = map[string]int{}
	t.merge(parts)
	t.roundSkew = append(t.roundSkew, replicaSkew(t.replicas, len(st.urls)))
	for _, ms := range movedBy {
		for _, m := range ms {
			if err := sameAsReplica(ws[0], in.pool[m.idx], m.replica, m.body); err != nil {
				t.fail("pool body %d: %v", m.idx, err)
				continue
			}
			if err := in.ref.check(ctx, in.pool[m.idx], m.body); err != nil {
				t.fail("pool body %d: %v", m.idx, err)
			}
		}
	}
	t.endRound(wall, cpu, okBefore, opsBefore)
	return nil
}

// sameAsReplica asks replica directly for b and checks that the gateway
// relayed its answer byte for byte.
func sameAsReplica(wk *worker, b body, replica string, relayed []byte) error {
	if replica == "" {
		return fmt.Errorf("gateway named no replica")
	}
	r := wk.post(replica, b)
	if r.err != nil {
		return fmt.Errorf("direct request to %s: %w", replica, r.err)
	}
	if r.status != http.StatusOK || !bytes.Equal(r.body, relayed) {
		return fmt.Errorf("gateway answer differs from replica %s's own (status %d)", replica, r.status)
	}
	return nil
}

// The reproduce workload's fixed experiment list.
var reproduceList = []string{"fig01", "fig14"}

// reproduceRound runs the experiment list once. Its set-up is the
// registry install `bandwall run` makes plus one build of fig01's
// workload generators, the experiment's own first stage.
func reproduceRound(ctx context.Context, cfg config, t *tally) error {
	start, startCPU := time.Now(), cpuTime()
	installObs()
	if err := buildFig01Generators(int64(cfg.seed)); err != nil {
		return err
	}
	t.setupDone(start, startCPU)

	okBefore, opsBefore := t.ok(), t.attempted
	cpu0 := cpuTime()
	begin := time.Now()
	var errs []error
	for _, id := range reproduceList {
		errs = append(errs, runExperiment(ctx, id, int64(cfg.seed), nil))
	}
	wall := time.Since(begin)
	cpu := cpuTime() - cpu0
	t.attempted++
	t.lat = append(t.lat, wall)
	if err := errors.Join(errs...); err != nil {
		t.fail("%v", err)
	}
	t.endRound(wall, cpu, okBefore, opsBefore)
	return nil
}

// runExperiment runs one quick experiment through exp.RunOne and applies
// its checks. When took is non-nil it receives the run's duration.
func runExperiment(ctx context.Context, id string, seed int64, took *time.Duration) error {
	e, ok := exp.ByID(id)
	if !ok {
		return fmt.Errorf("no experiment %s", id)
	}
	start := time.Now()
	r, err := exp.RunOne(ctx, e, exp.Options{Quick: true, Seed: seed})
	if took != nil {
		*took = time.Since(start)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if id == "fig01" {
		return checkFig01(r)
	}
	return checkFig14(r)
}

// fig01Build is fig01's quick-mode suite configuration.
func fig01Build(seed int64) suite.BuildOptions {
	b := suite.DefaultBuildOptions()
	b.Seed = seed
	b.FootprintLines = 1 << 17
	b.PhasedLines = 2048
	b.PhasedDwell = fig01Accesses / 3
	return b
}

// fig01's quick-mode stream: accesses per workload, of which the first
// fig01Warmup only warm the caches, over power-of-two caches up to 512KB.
const (
	fig01Accesses = 300_000
	fig01Warmup   = 60_000
	fig01MaxSize  = 512 * 1024
)

// buildFig01Generators builds each of fig01's workload generators and
// draws its first access.
func buildFig01Generators(seed int64) error {
	build := fig01Build(seed)
	for _, wl := range suite.Paper {
		g, err := wl.Build(build)
		if err != nil {
			return fmt.Errorf("building %s: %w", wl.Name, err)
		}
		g.Next()
	}
	return nil
}
