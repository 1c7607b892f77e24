package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cachesim"
	"repro/internal/fit"
	"repro/internal/fleet"
	"repro/internal/mattson"
	"repro/internal/optimize"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/suite"
	"repro/internal/trace"
)

// Requests in each phase of a traced serve section.
const (
	tracedHot   = 2048
	tracedCold  = 1024
	tracedFleet = 2048
	// allocProbe is the number of in-process handler calls whose
	// allocations serve.alloc_kb_per_req averages.
	allocProbe = 256
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Req; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps one goroutine's spans in memory. IDs are unique across
// logs because each log owns a distinct high-bit prefix.
type spanLog struct {
	epoch time.Time
	base  uint64
	n     uint64
	spans []span
}

func (l *spanLog) newID() uint64 { l.n++; return l.base | l.n }

func (l *spanLog) add(name string, id, parent uint64, req int, start, end time.Time) time.Duration {
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	return end.Sub(start)
}

// time runs fn under a new span and returns its duration.
func (l *spanLog) time(name string, parent uint64, req int, fn func()) time.Duration {
	start := time.Now()
	fn()
	return l.add(name, l.newID(), parent, req, start, time.Now())
}

// tracer hands out span logs and writes them all out at the end.
type tracer struct {
	epoch time.Time
	logs  []*spanLog
}

func (tr *tracer) log() *spanLog {
	l := &spanLog{epoch: tr.epoch, base: uint64(len(tr.logs)+1) << 40}
	tr.logs = append(tr.logs, l)
	return l
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range tr.logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// section is what one workload's traced run measured: per-operation layer
// samples (µs) and whole-section ratios and counts.
type section struct {
	samples map[string][]float64
	values  map[string]float64
	ledger  []string // the ledger, as report lines
}

func newSection() *section {
	return &section{samples: map[string][]float64{}, values: map[string]float64{}}
}

func (s *section) sample(name string, d time.Duration) { s.add(name, float64(d.Nanoseconds())/1e3) }

func (s *section) add(name string, v float64) { s.samples[name] = append(s.samples[name], v) }

func (s *section) merge(parts []*section) {
	for _, p := range parts {
		for k, v := range p.samples {
			s.samples[k] = append(s.samples[k], v...)
		}
	}
}

// metric is a layer metric: the median of its samples, or a value.
func (s *section) metric(name string) (float64, bool) {
	if v, ok := s.values[name]; ok {
		return v, true
	}
	if v, ok := s.samples[name]; ok && len(v) > 0 {
		return median(v), true
	}
	return 0, false
}

func (s *section) p50(name string) float64 { v, _ := s.metric(name); return v }

// tracedRun measures every layer: each workload's traced section, the
// named workload's first. The remainder and the tracing overhead are the
// named workload's; a layer the named workload bypasses is measured on the
// workload that exercises it.
func tracedRun(ctx context.Context, cfg config, tr *tracer, t *tally) (map[string]float64, error) {
	in, err := newHotInputs(cfg)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	order := []string{cfg.workload}
	for _, w := range workloadNames {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	var sections []*section
	for _, w := range order {
		var s *section
		if w == "reproduce" {
			s, err = traceReproduce(ctx, cfg, cfg.workload == w, tr, t)
		} else {
			s, err = traceServe(ctx, cfg, w, in, tr, t)
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w, err)
		}
		sections = append(sections, s)
	}
	for _, s := range sections {
		t.notes = append(t.notes, s.ledger...)
	}
	out := map[string]float64{}
	for _, m := range layerMetrics {
		found := false
		for _, s := range sections {
			if v, ok := s.metric(m.Name); ok {
				out[m.Name], found = v, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("no traced section measured %s", m.Name)
		}
	}
	return out, nil
}

// traceServe runs one server workload's traced section on a fresh stack:
// an untraced phase that sets the baseline, then a traced phase in which
// every loopback request is replayed beside itself, once through the
// calls the handler makes and once through the handler on a recorder.
func traceServe(ctx context.Context, cfg config, workload string, in *hotInputs, tr *tracer, t *tally) (*section, error) {
	cold := workload == "serve-cold"
	replicas, n := 1, tracedHot
	switch workload {
	case "serve-cold":
		n = tracedCold
	case "fleet-hot":
		replicas, n = 2, tracedFleet
	}
	st, err := startStack(replicas, workload == "fleet-hot")
	if err != nil {
		return nil, err
	}
	hc := newClient(cfg.conns)
	// A drain error after the window changes no answer the run checked.
	defer func() { hc.CloseIdleConnections(); _ = st.close() }()
	ws := newWorkers(hc, cfg.conns)

	// Inputs: the pool, warmed, for the hot workloads; fresh stream
	// bodies for serve-cold, which also gets a shadow server and a shadow
	// engine that see each body for the first time, like the real one.
	var bodies []body
	var shadowSrv *serve.Server
	var shadowEng *scenario.Engine
	var shadowOpt *optimize.Optimizer
	if cold {
		stream := newColdStream(cfg.seed)
		if bodies, err = stream.next(2*n + allocProbe); err != nil {
			return nil, err
		}
		if err := openConns(ws, st.entryURL); err != nil {
			return nil, err
		}
		shadowSrv = serve.NewServer(serve.Config{})
		shadowEng = scenario.NewEngine()
		shadowOpt = optimize.NewWithCache(shadowEng.Cache)
	} else {
		if _, err := warmStack(ws, st, in.pool); err != nil {
			return nil, err
		}
		for i := range 2 * n {
			bodies = append(bodies, in.pool[in.order[i]])
		}
	}
	s := newSection()

	// Untraced phase: the baseline for the tracing overhead and the
	// collector cycles per request.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := newTallies(len(ws))
	closedLoop(ws, n, func(wk *worker, wi, i int) { base[wi].observe(wk.post(st.entryURL, bodies[i])) })
	runtime.ReadMemStats(&ms1)
	untraced := newTally()
	untraced.merge(base)
	if untraced.failed > 0 {
		return nil, fmt.Errorf("untraced phase: %s", untraced.errs[0])
	}
	sortDurations(untraced.lat)
	untracedP50 := float64(percentile(untraced.lat, 0.5).Nanoseconds()) / 1e3
	s.values["runtime.gc_per_kreq"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(n)

	// Traced phase.
	hedges := st.reg.Counter(fleet.MetricHedges)
	hedgesBefore := hedges.Value()
	var memoHits0, memoMiss0 uint64
	if cold {
		memoHits0, memoMiss0 = shadowEng.Cache.Stats()
	}
	parts := make([]*section, len(ws))
	logs := make([]*spanLog, len(ws))
	counts := newTallies(len(ws))
	for i := range ws {
		parts[i], logs[i] = newSection(), tr.log()
	}
	traced := bodies[n : 2*n]
	closedLoop(ws, n, func(wk *worker, wi, i int) {
		l, p, b := logs[wi], parts[wi], traced[i]
		req := l.newID()
		start := time.Now()
		var r reply
		client := l.time("http.client", req, i, func() { r = wk.post(st.entryURL, b) })
		if !counts[wi].observe(r) {
			return
		}
		p.sample("http.client_us", client)
		h := st.servers[0]
		if workload == "fleet-hot" {
			var direct reply
			d := l.time("fleet.direct", req, i, func() { direct = wk.post(r.replica, b) })
			if direct.err != nil || direct.status != http.StatusOK {
				counts[wi].fail("direct request to %s failed", r.replica)
				return
			}
			p.sample("fleet.hop_us", client-d)
			client = d // the replica's share of the gateway request
			if h, _ = st.server(r.replica); h == nil {
				counts[wi].fail("gateway named unknown replica %q", r.replica)
				return
			}
		}

		// The handler's calls, in the handler's order.
		replay := l.newID()
		rs := time.Now()
		var parse, fp, work time.Duration
		var perr error
		if b.path == optimizePath {
			var osp *scenario.OptimizeSpec
			parse = l.time("scenario.parse_optimize", replay, i, func() { osp, perr = scenario.ParseOptimizeSpec(b.data) })
			if perr == nil {
				fp = l.time("serve.fingerprint", replay, i, func() { _, perr = serve.FingerprintOptimizeSpec(osp) })
			}
			if perr == nil {
				var res *optimize.Result
				work = l.time("optimize.search", replay, i, func() { res, perr = shadowOpt.Search(ctx, osp) })
				if perr == nil {
					p.add("stacks", float64(res.Stacks))
				}
			}
			p.sample("scenario.parse_optimize_us", parse)
			p.sample("optimize.search_us", work)
		} else {
			var sp *scenario.Spec
			parse = l.time("scenario.parse", replay, i, func() { sp, perr = scenario.ParseSpec(b.data) })
			if perr == nil {
				fp = l.time("serve.fingerprint", replay, i, func() { _, perr = serve.FingerprintSpec(sp) })
			}
			if perr == nil && cold {
				var o *scenario.Outcome
				work = l.time("scenario.evaluate", replay, i, func() { o, perr = shadowEng.Evaluate(ctx, sp) })
				if perr == nil {
					p.add("cells", float64(len(o.Points)))
					p.sample("scaling.solve_us_per_cell", work/time.Duration(len(o.Points)))
				}
				p.sample("scenario.evaluate_us", work)
			}
			p.sample("scenario.parse_us", parse)
		}
		l.add("replay", replay, req, i, rs, time.Now())
		if perr != nil {
			counts[wi].fail("replay: %v", perr)
			return
		}
		p.sample("serve.fingerprint_us", fp)

		// The handler itself, on a recorder: a hit on the server that
		// answered, a miss on the shadow server.
		target := h.Handler()
		if cold {
			target = shadowSrv.Handler()
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.data))
		handler := l.time("serve.handler", req, i, func() { target.ServeHTTP(rec, hreq) })
		l.add("request", req, 0, i, start, time.Now())
		if rec.Code != http.StatusOK {
			counts[wi].fail("handler replay: status %d", rec.Code)
			return
		}
		if cold {
			p.sample("serve.handler_miss_us", handler)
		} else {
			p.sample("serve.handler_hit_us", handler)
		}
		p.sample("serve.handler_self_us", handler-parse-fp-work)
		p.sample("http.transport_us", client-handler)
		p.sample("ledger.parse_us", parse)
		p.sample("ledger.work_us", work)
	})
	s.merge(parts)
	tt := newTally()
	tt.merge(counts)
	t.attempted += tt.attempted
	t.failed += tt.failed
	t.errs = append(t.errs, tt.errs...)
	if cold {
		h1, m1 := shadowEng.Cache.Stats()
		if dh, dm := h1-memoHits0, m1-memoMiss0; dh+dm > 0 {
			s.values["scaling.memo_hit_ratio"] = float64(dh) / float64(dh+dm)
		}
		s.values["scenario.cells_per_spec"] = mean(s.samples["cells"])
		s.values["optimize.stacks_per_search"] = mean(s.samples["stacks"])
	}
	s.values["serve.cache_hit_ratio"] = float64(tt.cache["hit"]) / float64(max(tt.attempted, 1))
	tt.applyGuards(workload)
	t.guards = append(t.guards, tt.guards...)
	tracedP50 := s.p50("http.client_us")
	if workload == "fleet-hot" {
		s.values["fleet.attempts_per_req"] = float64(tt.attempts) / float64(max(tt.attempted, 1))
		s.values["fleet.hedge_ratio"] = float64(hedges.Value()-hedgesBefore) / float64(max(tt.attempted, 1))
		s.values["fleet.replica_skew"] = replicaSkew(tt.replicas, len(st.urls))
	}
	s.values["trace.overhead_pct"] = (tracedP50/untracedP50 - 1) * 100

	// The ledger: the client's median against the sum of the layers' medians.
	terms := []string{"http.transport_us", "ledger.parse_us", "serve.fingerprint_us", "ledger.work_us", "serve.handler_self_us"}
	if workload == "fleet-hot" {
		terms = append([]string{"fleet.hop_us"}, terms...)
	}
	sum := 0.0
	line := fmt.Sprintf("ledger %s: client p50 %.1f us =", workload, tracedP50)
	for i, term := range terms {
		v := s.p50(term)
		sum += v
		sep := " +"
		if i == 0 {
			sep = ""
		}
		line += fmt.Sprintf("%s %s %.1f", sep, term, v)
	}
	s.values["ledger.remainder_us"] = tracedP50 - sum
	s.ledger = append(s.ledger, line+fmt.Sprintf(" + remainder %.1f", tracedP50-sum),
		fmt.Sprintf("ledger %s: untraced client p50 %.1f us, traced %.1f us", workload, untracedP50, tracedP50))

	// Allocation per request, measured on the in-process handler alone.
	if workload != "fleet-hot" {
		probe := bodies[:allocProbe]
		target := st.servers[0].Handler()
		if cold {
			probe = bodies[2*n:]
			target = serve.NewServer(serve.Config{}).Handler()
		}
		kb, err := allocPerRequest(target, probe)
		if err != nil {
			return nil, err
		}
		s.values["serve.alloc_kb_per_req"] = kb
	}
	return s, nil
}

// allocPerRequest is the heap allocated per handler call, in KB.
func allocPerRequest(h http.Handler, bodies []body) (float64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.data)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("allocation probe: status %d", rec.Code)
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(bodies)), nil
}

// replicaSkew is the busiest replica's share over an even share.
func replicaSkew(counts map[string]int, replicas int) float64 {
	total, busiest := 0, 0
	for _, c := range counts {
		total += c
		busiest = max(busiest, c)
	}
	if total == 0 {
		return 0
	}
	return float64(busiest) * float64(replicas) / float64(total)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// traceReproduce times the experiment list under spans, then runs fig01's
// stages from outside — suite workload build, trace collection, the
// Mattson kernel with one worker and with nproc, the bootstrap fit — so
// fig01's time splits into layers. With baseline set it first runs the
// list untraced, for the tracing overhead.
func traceReproduce(ctx context.Context, cfg config, baseline bool, tr *tracer, t *tally) (*section, error) {
	installObs()
	seed := int64(cfg.seed)
	s := newSection()
	var untraced time.Duration
	if baseline {
		start := time.Now()
		for _, id := range reproduceList {
			if err := runExperiment(ctx, id, seed, nil); err != nil {
				return nil, err
			}
		}
		untraced = time.Since(start)
	}

	l := tr.log()
	root := l.newID()
	start := time.Now()
	took := map[string]time.Duration{}
	var errs []error
	for _, id := range reproduceList {
		var d time.Duration
		l.time("exp."+id, root, 0, func() { errs = append(errs, runExperiment(ctx, id, seed, &d)) })
		took[id] = d
	}
	l.add("reproduce", root, 0, 0, start, time.Now())
	t.attempted++
	if err := errors.Join(errs...); err != nil {
		t.fail("%v", err)
	}

	replay := l.newID()
	rs := time.Now()
	sizes := cachesim.PowerOfTwoSizes(32*1024, fig01MaxSize)
	cfg01 := cachesim.Config{LineBytes: 64, Assoc: 8, Policy: cachesim.LRU, WriteBack: true, WriteAllocate: true}
	buf := make([]trace.Access, fig01Accesses)
	var build, gen, serial, parallel, fitting time.Duration
	for wi, wl := range suite.Paper {
		var g trace.Generator
		var err error
		build += l.time("workload.build", replay, wi, func() { g, err = wl.Build(fig01Build(seed)) })
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", wl.Name, err)
		}
		gen += l.time("workload.gen", replay, wi, func() { trace.CollectInto(g, buf) })
		var pts []cachesim.CurvePoint
		for _, workers := range []int{1, runtime.NumCPU()} {
			rep, err := trace.NewReplayer(buf)
			if err != nil {
				return nil, err
			}
			name, acc := "mattson.serial", &serial
			if workers > 1 {
				name, acc = "mattson.parallel", &parallel
			}
			*acc += l.time(name, replay, wi, func() {
				pts, err = mattson.MissCurveFastParallel(ctx, rep, cfg01, sizes, fig01Warmup, fig01Accesses, workers)
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", name, wl.Name, err)
			}
		}
		fitting += l.time("fit.bootstrap", replay, wi, func() { _, err = fit.Bootstrap(pts, 300, 0.9, 1700+int64(wi)) })
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", wl.Name, err)
		}
	}
	l.add("exp.fig01.replay", replay, 0, 0, rs, time.Now())

	accesses := float64(len(suite.Paper) * fig01Accesses)
	stages := build + gen + parallel + fitting
	s.values["workload.gen_ns_per_access"] = float64(gen.Nanoseconds()) / accesses
	s.values["mattson.serial_ns_per_access"] = float64(serial.Nanoseconds()) / accesses
	s.values["mattson.parallel_ns_per_access"] = float64(parallel.Nanoseconds()) / accesses
	s.values["fit.bootstrap_ms"] = float64(fitting.Nanoseconds()) / 1e6 / float64(len(suite.Paper))
	s.values["exp.fig01_s"] = took["fig01"].Seconds()
	s.values["exp.fig14_s"] = took["fig14"].Seconds()
	s.values["exp.fig01_self_s"] = (took["fig01"] - stages).Seconds()
	s.ledger = append(s.ledger, fmt.Sprintf(
		"ledger reproduce: fig01 %.3f s = build %.3f + gen %.3f + mattson (nproc workers) %.3f + fit %.3f + self %.3f; fig14 %.3f s",
		took["fig01"].Seconds(), build.Seconds(), gen.Seconds(), parallel.Seconds(), fitting.Seconds(),
		(took["fig01"]-stages).Seconds(), took["fig14"].Seconds()))
	if baseline {
		tracedWall := took["fig01"] + took["fig14"]
		s.values["ledger.remainder_us"] = float64((tracedWall - stages - took["fig14"]).Nanoseconds()) / 1e3
		s.values["trace.overhead_pct"] = (tracedWall.Seconds()/untraced.Seconds() - 1) * 100
		s.ledger = append(s.ledger, fmt.Sprintf("ledger reproduce: untraced list %.3f s, traced %.3f s", untraced.Seconds(), tracedWall.Seconds()))
	}
	return s, nil
}
