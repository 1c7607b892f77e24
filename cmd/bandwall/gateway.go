package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"repro/internal/fleet"
)

// cmdGateway runs the fleet front tier: a fault-tolerant gateway that
// partitions /v1/eval and /v1/optimize traffic across bandwall serve
// replicas by the query's fingerprint, with circuit breaking, failover,
// hedging, deadline budgets, and stale-reserve degradation (see
// internal/fleet).
func cmdGateway(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (host:port; :0 picks a free port)")
	replicas := fs.String("replicas", "", "comma-separated serve replica base URLs (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
	timeout := fs.Duration("timeout", fleet.DefaultTimeout, "end-to-end deadline budget per proxied request")
	attempts := fs.Int("attempts", fleet.DefaultMaxAttempts, "max proxy attempts per request (first try included)")
	retryBase := fs.Duration("retry-base", fleet.DefaultRetryBase, "failover backoff before the second attempt (doubles per attempt)")
	brThreshold := fs.Int("breaker-threshold", fleet.DefaultBreakerThreshold, "consecutive failures that trip a replica's circuit breaker")
	brCooldown := fs.Duration("breaker-cooldown", fleet.DefaultBreakerCooldown, "open-breaker cooldown before a half-open probe")
	healthEvery := fs.Duration("health-interval", fleet.DefaultHealthInterval, "active health-check sweep interval")
	hedge := fs.Float64("hedge", fleet.DefaultHedgeQuantile, "hedge eval requests at this per-replica latency quantile (0 disables)")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed hedge delay overriding the adaptive quantile (0: adaptive)")
	staleSize := fs.Int("stale-cache", fleet.DefaultStaleCacheSize, "stale last-known-good response reserve entries (negative disables)")
	drain := fs.Duration("drain", fleet.DefaultDrainTimeout, "graceful-shutdown drain budget")
	quiet := fs.Bool("quiet", false, "suppress per-request access logging")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("gateway: unexpected argument %q", fs.Arg(0))
	}
	if *replicas == "" {
		return usagef("gateway: -replicas is required (comma-separated serve base URLs)")
	}

	reg, restore := enableObs()
	defer restore()
	reg.SetSpanCap(registrySpanCap)

	cfg := fleet.Config{
		Replicas:         strings.Split(*replicas, ","),
		Timeout:          *timeout,
		MaxAttempts:      *attempts,
		RetryBase:        *retryBase,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		HealthInterval:   *healthEvery,
		HedgeAfter:       *hedgeAfter,
		StaleCacheSize:   *staleSize,
		DrainTimeout:     *drain,
	}
	if *hedge <= 0 {
		cfg.HedgeQuantile = -1 // disabled
	} else {
		if *hedge > 1 {
			return usagef("gateway: -hedge %g: want a quantile in (0,1]", *hedge)
		}
		cfg.HedgeQuantile = *hedge
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	g, err := fleet.NewGateway(cfg)
	if err != nil {
		return err
	}
	err = g.ListenAndServe(ctx, *addr, func(a net.Addr) {
		hedgeDesc := "off"
		if cfg.HedgeQuantile > 0 {
			hedgeDesc = fmt.Sprintf("p%.0f", cfg.HedgeQuantile*100)
			if *hedgeAfter > 0 {
				hedgeDesc = (*hedgeAfter).String()
			}
		}
		fmt.Fprintf(out, "bandwall gateway: listening on http://%s (%d replicas, attempts %d, breaker %d/%s, hedge %s)\n",
			a, len(cfg.Replicas), cfg.MaxAttempts, cfg.BreakerThreshold, cfg.BreakerCooldown, hedgeDesc)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "bandwall gateway: drained and stopped")
	return nil
}
