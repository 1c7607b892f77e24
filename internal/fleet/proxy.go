package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/robust"
)

// maxProxyBody bounds how much of an upstream response the gateway will
// buffer. Responses are fully buffered before being relayed — that is
// what makes hedge-loser cancellation and failover re-sends trivially
// safe — so the bound is the memory ceiling per in-flight request.
const maxProxyBody = 8 << 20

// sliceGrace pads the per-attempt transport deadline past the
// ?timeout= budget forwarded to the replica, so the replica's own 504
// (with its taxonomy body and trace ID) usually wins the race against
// the gateway's blunt context cancellation.
const sliceGrace = 250 * time.Millisecond

// minAttemptBudget is the smallest remaining deadline budget worth
// spending on a proxy attempt; below it the gateway answers 504 itself.
const minAttemptBudget = 2 * time.Millisecond

// errNoReplica reports that every replica's circuit breaker refused the
// request: total ring failure as far as routing is concerned.
var errNoReplica = errors.New("fleet: no replica available (all circuit breakers open)")

// proxyResult is one fully buffered upstream response.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	rep    *replica
}

// attempt sends one proxied request to rep, buffering the full
// response. slice > 0 is this attempt's share of the deadline budget;
// it is forwarded to the replica as ?timeout= (the replica enforces it
// with its own taxonomy 504) and enforced transport-side with a small
// grace. The cache fan-out passes 0, under its own deadline. Transport-level errors come back marked Transient so the
// failover loop retries them; injected fleet.dial / fleet.proxy faults
// come back exactly as injected.
func (g *Gateway) attempt(ctx context.Context, rep *replica, method, path, query string, body []byte, slice time.Duration) (res *proxyResult, err error) {
	actx := robust.WithScope(ctx, rep.base)
	rep.hits.Add(1)
	// Chaos hook before the dial: a plan scoped to this replica's base URL
	// (fleet.dial@http://host:port=transient) fails the attempt without
	// the replica ever seeing it.
	if err := robust.Safe(func() error { return robust.Hit(actx, "fleet.dial") }); err != nil {
		return nil, err
	}
	u := rep.base + path
	q := query
	if slice > 0 {
		tp := "timeout=" + url.QueryEscape(slice.Round(time.Millisecond).String())
		if q == "" {
			q = tp
		} else {
			q += "&" + tp
		}
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, slice+sliceGrace)
		defer cancel()
	}
	if q != "" {
		u += "?" + q
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("fleet: building request: %w", err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		// Connect refused/reset, DNS, transport timeout. Classify checks
		// cancellation sentinels before the transient mark, so a wrapped
		// context.DeadlineExceeded still classifies Canceled here.
		return nil, robust.MarkTransient(fmt.Errorf("fleet: %s %s: %w", method, rep.base+path, err))
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, robust.MarkTransient(fmt.Errorf("fleet: reading %s response: %w", rep.base, err))
	}
	// Chaos hook after the response: fleet.proxy faults simulate a relay
	// that got bytes back and then failed to deliver them.
	if err := robust.Safe(func() error { return robust.Hit(actx, "fleet.proxy") }); err != nil {
		return nil, err
	}
	if resp.StatusCode < http.StatusInternalServerError {
		rep.lat.Observe(time.Since(start))
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: b, rep: rep}, nil
}

// forwarder is forward's signature, which forwardHedged shares.
type forwarder func(ctx context.Context, order []*replica, path string, body []byte) (*proxyResult, int, error)

// forward POSTs body to path along order — the rendezvous preference
// sequence for this request's key — spending up to maxAttempts proxy
// attempts and the context's deadline budget. Each attempt gets an
// equal share of the remaining budget (remaining / attemptsLeft), so
// one slow replica cannot eat the whole deadline before failover gets a
// turn.
//
// Outcome contract:
//   - (res, n, nil) with res.status < 500: a definitive upstream answer
//     (success or a client-fault 4xx) — 4xx including the replica's 400
//     "domain" and 429 "saturated" are passed through, never retried.
//   - (res, n, nil) with res.status ≥ 500: every attempt failed; res is
//     the last upstream 5xx, for the caller's degradation ladder.
//   - (nil, n, err): no upstream answer at all — err is the budget
//     expiry (Canceled), an injected permanent fault, errNoReplica, or
//     the last transport error.
func (g *Gateway) forward(ctx context.Context, order []*replica, path string, body []byte) (res *proxyResult, attempts int, err error) {
	if len(order) == 0 {
		return nil, 0, errNoReplica
	}
	deadline, hasDeadline := ctx.Deadline()
	maxAtt := g.cfg.maxAttempts()
	rc := robust.RetryConfig{BaseDelay: g.cfg.retryBase(), MaxDelay: robust.DefaultMaxDelay}
	var last5xx *proxyResult
	var lastErr error
	next := 0 // ring position the next attempt starts scanning from
	for attempts < maxAtt {
		// Pick the first replica, scanning from next, whose breaker admits
		// the request. Failover then resumes *after* it, so a run of
		// attempts walks the ring instead of hammering one replica.
		var rep *replica
		for i := 0; i < len(order); i++ {
			cand := order[(next+i)%len(order)]
			if cand.br.Allow() {
				rep = cand
				next = (next + i + 1) % len(order)
				break
			}
		}
		if rep == nil {
			break // all breakers open/probing: total ring failure
		}
		slice := time.Duration(0)
		if hasDeadline {
			remaining := time.Until(deadline)
			if remaining < minAttemptBudget {
				rep.br.Cancel()
				return nil, attempts, fmt.Errorf("fleet: deadline budget exhausted after %d attempts: %w", attempts, robust.ErrCanceled)
			}
			slice = remaining / time.Duration(maxAtt-attempts)
		}
		attempts++
		pr, aerr := g.attempt(ctx, rep, http.MethodPost, path, "", body, slice)
		if aerr == nil {
			if pr.status < http.StatusInternalServerError {
				rep.br.Success()
				return pr, attempts, nil
			}
			rep.br.Failure()
			g.mFailover.Inc()
			last5xx = pr
		} else {
			switch robust.Classify(aerr) {
			case robust.Canceled:
				if ctx.Err() != nil {
					// The request's own budget died, not the replica.
					rep.br.Cancel()
					return nil, attempts, fmt.Errorf("fleet: deadline budget exhausted after %d attempts: %w", attempts, robust.ErrCanceled)
				}
				// Only the per-attempt slice expired: the replica was too slow
				// for its share — that is a replica failure.
				rep.br.Failure()
				g.mFailover.Inc()
				lastErr = aerr
			case robust.Transient:
				rep.br.Failure()
				g.mFailover.Inc()
				lastErr = aerr
			default:
				// Permanent (e.g. an injected domain fault at fleet.dial):
				// retrying cannot help, per the taxonomy.
				rep.br.Cancel()
				return nil, attempts, aerr
			}
		}
		if attempts < maxAtt {
			g.mRetries.Inc()
			if serr := robust.Sleep(ctx, rc.Backoff(attempts)); serr != nil {
				return nil, attempts, serr
			}
		}
	}
	if last5xx != nil {
		return last5xx, attempts, nil
	}
	if lastErr != nil {
		return nil, attempts, lastErr
	}
	return nil, attempts, errNoReplica
}

// hedgeDelay resolves the hedge trigger for a request whose preferred
// replica is rep: the configured fixed delay if set, else rep's recent
// latency quantile (needs hedgeMinSamples observations first). ok=false
// means "do not hedge this request".
func (g *Gateway) hedgeDelay(rep *replica) (time.Duration, bool) {
	if g.cfg.HedgeQuantile < 0 {
		return 0, false
	}
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter, true
	}
	q := g.cfg.HedgeQuantile
	if q == 0 {
		q = DefaultHedgeQuantile
	}
	d, ok := rep.lat.Quantile(q)
	if !ok {
		return 0, false
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}

// minHedgeDelay floors the adaptive hedge trigger so cache-hot replicas
// (microsecond latencies) don't make every request a double send.
const minHedgeDelay = time.Millisecond

// forwardHedged is forward plus tail-latency hedging: if the primary
// attempt chain hasn't produced an answer after the hedge delay, a
// second chain starts on the rotated ring order (so it tries the
// second-choice replica first) and the first definitive answer wins.
// Both responses are fully buffered, so the loser is simply cancelled
// and garbage-collected; its context cancellation is the only side
// effect the loser's replica ever sees.
func (g *Gateway) forwardHedged(ctx context.Context, order []*replica, path string, body []byte) (*proxyResult, int, error) {
	delay, ok := g.hedgeDelay(order[0])
	if !ok || len(order) < 2 {
		return g.forward(ctx, order, path, body)
	}
	type out struct {
		res      *proxyResult
		attempts int
		err      error
		hedge    bool
	}
	ch := make(chan out, 2) // buffered: the loser's send never blocks, so no goroutine leak
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	run := func(c context.Context, ord []*replica, hedge bool) {
		r, a, e := g.forward(c, ord, path, body)
		ch <- out{res: r, attempts: a, err: e, hedge: hedge}
	}
	go run(pctx, order, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched := false
	var first out
	select {
	case first = <-ch:
	case <-timer.C:
		launched = true
		g.mHedges.Inc()
		hedged := append(append(make([]*replica, 0, len(order)), order[1:]...), order[0])
		go run(hctx, hedged, true)
		first = <-ch
	}
	good := func(o out) bool { return o.err == nil && o.res != nil && o.res.status < http.StatusInternalServerError }
	if good(first) || !launched {
		if first.hedge && good(first) {
			g.mHedgeWins.Inc()
		}
		return first.res, first.attempts, first.err
	}
	// The first finisher failed and a hedge is in flight: its answer is
	// the only hope left.
	second := <-ch
	if good(second) {
		if second.hedge {
			g.mHedgeWins.Inc()
		}
		return second.res, first.attempts + second.attempts, second.err
	}
	// Both failed: prefer whichever outcome carries an upstream response.
	attempts := first.attempts + second.attempts
	if first.res != nil {
		return first.res, attempts, first.err
	}
	return second.res, attempts, second.err
}
