package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/serve"
)

// registrySpanCap bounds the obs registry's completed-span buffer in the
// long-lived server: each POST /v1/experiments/{id}/run records its
// experiment's span, and an unbounded buffer would grow for the life of
// the process. The ring keeps the most recent ones for the NDJSON
// /metrics dump.
const registrySpanCap = 1024

// cmdServe runs the HTTP evaluation service until the process context
// is canceled (SIGINT/SIGTERM), then drains in-flight requests and
// exits cleanly — a SIGTERM'd server exits 0.
func cmdServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	inflight := fs.Int("inflight", serve.DefaultMaxInflight, "max concurrently admitted eval/optimize/run requests (beyond: 429)")
	timeout := fs.Duration("timeout", serve.DefaultEvalTimeout, "per-request solver deadline")
	drain := fs.Duration("drain", serve.DefaultDrainTimeout, "graceful-shutdown drain budget")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "response cache entries (negative disables)")
	traceBuf := fs.Int("tracebuf", serve.DefaultTraceBuffer, "completed request traces retained for GET /v1/trace")
	debugAddr := fs.String("debug-addr", "", "also serve net/http/pprof on this `host:port` (empty: disabled)")
	quiet := fs.Bool("quiet", false, "suppress per-request access logging")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("serve: unexpected argument %q", fs.Arg(0))
	}

	// The server always collects metrics: /metrics is an endpoint, not a
	// debug flag. The registry is installed before NewServer so every
	// instrument (including the engine's solver-cache counters) lands in it.
	reg, restore := enableObs()
	defer restore()
	serve.RegisterObs(reg)
	reg.SetSpanCap(registrySpanCap)

	// pprof stays off the service mux: profiling endpoints leak heap
	// contents and stack traces, so they bind separately (typically to
	// localhost) and only on request.
	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dl.Close()
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { _ = http.Serve(dl, dmux) }()
		fmt.Fprintf(out, "bandwall serve: pprof on http://%s/debug/pprof/\n", dl.Addr())
	}

	cfg := serve.Config{
		MaxInflight:  *inflight,
		EvalTimeout:  *timeout,
		DrainTimeout: *drain,
		CacheSize:    *cacheSize,
		TraceBuffer:  *traceBuf,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	s := serve.NewServer(cfg)
	err := s.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(out, "bandwall serve: listening on http://%s (inflight %d, timeout %s, cache %d, tracebuf %d)\n",
			a, *inflight, *timeout, *cacheSize, *traceBuf)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bandwall serve: drained and stopped (%d solves, %d shared flights)\n",
		s.Solves(), s.SharedFlights())
	return nil
}

// cmdLoadgen drives a running bandwall serve with a concurrent
// closed-loop client and reports throughput, latency percentiles, and
// the server-side per-stage breakdown over the measured window.
func cmdLoadgen(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "server base URL")
	path := fs.String("path", "/v1/eval", "endpoint to hit")
	specPath := fs.String("spec", "", "scenario spec file to POST (empty: GET the path)")
	conns := fs.Int("c", 32, "concurrent closed-loop connections")
	dur := fs.Duration("d", 5*time.Second, "measurement duration")
	chaos := fs.Bool("chaos", false, "chaos mode: rotate distinct-fingerprint spec variants (spreads load across a fleet ring); only shed load (429/503) and client-visible failures are reported separately")
	chaosSpecs := fs.Int("chaos-specs", 0, "chaos-mode spec variant pool size (0: default)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("loadgen: unexpected argument %q", fs.Arg(0))
	}
	cfg := serve.LoadgenConfig{URL: *url, Path: *path, Conns: *conns, Duration: *dur,
		Chaos: *chaos, ChaosVariants: *chaosSpecs}
	if *specPath != "" {
		body, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		cfg.Body = body
	}
	mode := ""
	if *chaos {
		mode = ", chaos"
	}
	fmt.Fprintf(out, "loadgen       : %s%s, %d conns, %s%s\n", *url, *path, *conns, *dur, mode)
	res, err := serve.Loadgen(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.String())
	// In chaos mode shed load (429/503 with Retry-After honored) is the
	// server degrading as designed, not a client-visible failure; only
	// visible errors fail the run.
	if *chaos {
		if v := res.Visible(); v > 0 {
			return fmt.Errorf("loadgen: %d of %d requests failed visibly", v, res.Requests)
		}
	} else if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
}
