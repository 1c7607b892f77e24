package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// checkReplica performs one active health probe: GET /healthz with its
// own short timeout. Anything but a 200 — connect failure, a draining
// replica's 503, a hung handler — counts as a breaker failure, so a
// replica that stops answering trips open within threshold×interval
// even with zero live traffic routed at it. A 200 flips the
// informational healthy flag and, if the breaker is half-open, serves
// as the probe that closes it (a restarted replica rejoins the ring
// without a live request having to gamble first).
func (g *Gateway) checkReplica(ctx context.Context, rep *replica) {
	hctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, rep.base+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		rep.healthy.Store(true)
		rep.br.HealthSuccess()
		return
	}
	rep.healthy.Store(false)
	rep.br.Failure()
}

// checkHealth probes every replica (concurrently, so one black-holed
// replica's timeout doesn't delay the others' checks) on a fixed tick
// until ctx is done. An immediate first sweep runs before the first
// tick so the gateway starts with real health state, not optimism.
func (g *Gateway) checkHealth(ctx context.Context) {
	sweep := func() {
		var wg sync.WaitGroup
		for _, rep := range g.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				g.checkReplica(ctx, rep)
			}(rep)
		}
		wg.Wait()
	}
	sweep()
	t := time.NewTicker(g.cfg.healthInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sweep()
		}
	}
}
