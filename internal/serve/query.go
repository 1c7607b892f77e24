package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/robust"
)

// maxSpecBytes bounds a query request body on both tiers. The largest
// shipped example spec is under 2 KiB; 1 MiB leaves three orders of
// magnitude of headroom while keeping a hostile client from ballooning
// the heap.
const maxSpecBytes = 1 << 20

// CacheHeader names the response header carrying the cache disposition
// ("hit", "miss", "shared"). Exported so the fleet gateway can relay the
// disposition its clients use to observe end-to-end caching.
const CacheHeader = "X-Bandwall-Cache"

// query declares one query kind on the serving pipeline: how a request
// body becomes a typed spec (parse), a cache key (fingerprint), an
// answer (solve) and response bytes (render). Eval and optimize are two
// declarations of it; a third kind is one more declaration, one mux line
// here and one in the gateway, and one case in ReadKey.
type query[T, R any] struct {
	route       string // trace and stage-histogram route; "serve."+route is the leader's fault point
	parse       func(body []byte) (T, error)
	fingerprint func(spec T) (string, error)
	solve       func(s *Server, ctx context.Context, spec T) (R, error)
	render      func(answer R) ([]byte, error)
}

// readSpec reads a query request body, refusing more than 1 MiB. Both
// tiers read bodies through read, so they share one limit and one
// message.
func readSpec(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > maxSpecBytes {
		return nil, fmt.Errorf("spec exceeds %d bytes", maxSpecBytes)
	}
	return body, nil
}

// input is one query body read off the wire and its cache key. spec is
// set only when parsed is: a body whose key came from the memo is parsed
// later, and only if the response cache misses.
type input[T any] struct {
	body   []byte
	key    string
	spec   T
	parsed bool
}

// read is the pipeline's first half: read the body, then key it. A body
// whose exact bytes memo holds takes its key from there, unparsed; any
// other body is parsed strictly and fingerprinted (always, when memo is
// nil). On failure read has already written the error response (an
// oversized or unreadable body is 400 "bad_request"; parse errors follow
// the robust taxonomy) and ok is false.
//
// Every path records the parse and fingerprint stages, and the trace
// carries memo=hit or memo=miss. On a hit the parse stage covers the body
// read and the lookup, and the fingerprint stage is empty: the lookup's
// outcome is known only after it runs, and on a miss the parse stage
// must go on to cover the strict parse.
func (q query[T, R]) read(w http.ResponseWriter, r *http.Request, memo *KeyMemo) (in input[T], ok bool) {
	ctx := r.Context()
	parseSpan := obs.StartTraceSpanLeaf(ctx, StageParse)
	body, err := readSpec(r)
	if err != nil {
		parseSpan.End()
		WriteError(w, r, http.StatusBadRequest, KindBadRequest, err)
		return in, false
	}
	in.body = body
	if memo != nil {
		if key, hit := memo.Get(q.route, body); hit {
			parseSpan.End()
			obs.StartTraceSpanLeaf(ctx, StageFingerprint).End()
			obs.TraceFrom(ctx).SetAttr("memo", "hit")
			in.key = key
			return in, true
		}
		obs.TraceFrom(ctx).SetAttr("memo", "miss")
	}
	in.spec, err = q.parse(body)
	parseSpan.End()
	if err != nil {
		WriteModelError(w, r, err) // ErrDomain-classified → 400 with kind "domain"
		return in, false
	}
	fpSpan := obs.StartTraceSpanLeaf(ctx, StageFingerprint)
	in.key, err = q.fingerprint(in.spec)
	fpSpan.End()
	if err != nil {
		WriteModelError(w, r, err)
		return in, false
	}
	in.parsed = true
	return in, true
}

// ReadKey is the first half of route's query pipeline ("eval" or
// "optimize"): read, then key the body from memo or by parse and
// fingerprint, each a traced stage. The gateway routes on it, so the
// replica a body is routed to files its answer under the same key. On
// failure it has written the error response and ok is false; body is
// nil then unless it was read. memoHit reports that the key came from
// memo, unparsed.
func ReadKey(w http.ResponseWriter, r *http.Request, route string, memo *KeyMemo) (body []byte, key string, memoHit, ok bool) {
	if route == optimizeQuery.route {
		in, ok := optimizeQuery.read(w, r, memo)
		return in.body, in.key, ok && !in.parsed, ok
	}
	in, ok := evalQuery.read(w, r, memo)
	return in.body, in.key, ok && !in.parsed, ok
}

// handleQuery serves one query kind behind admission: read → response
// cache → singleflight (fault point, solve, render once, cache) → write.
func handleQuery[T, R any](s *Server, q query[T, R]) http.HandlerFunc {
	fault := "serve." + q.route
	return s.admit(func(w http.ResponseWriter, r *http.Request) {
		in, ok := q.read(w, r, s.memo)
		if !ok {
			return
		}
		key := in.key
		ctx := r.Context()
		tr := obs.TraceFrom(ctx)
		lookSpan := obs.StartTraceSpanLeaf(ctx, StageCacheLookup)
		cached, ok := s.cache.Get(key)
		lookSpan.End()
		if ok {
			if in.parsed {
				// Its answer was cached, so this body has been asked
				// before: admit it to the memo.
				s.memo.Put(q.route, in.body, key)
			}
			s.mCacheHits.Inc()
			tr.SetAttr("cache", "hit")
			writeCached(ctx, w, cached, "hit")
			return
		}
		s.mCacheMiss.Inc()

		// The singleflight stage covers leader work (solve and render, whose
		// own spans nest under it via sfctx) and follower waiting alike. A
		// leader error is stamped with this trace's ID before the flight fans
		// it out, so followers' error bodies name the trace that did the
		// failing work.
		sfctx, sfSpan := obs.StartTraceSpan(ctx, StageSingleflight)
		resp, shared, err := s.flight.Do(key, func() ([]byte, error) {
			// Chaos hook: a seeded BANDWALL_FAULTS plan can make this replica
			// error, hang (sleep), or panic here. Panics are contained by
			// robust.Flight's robust.Safe wrapper into a 500 "panic" body —
			// the failure mode the fleet gateway's failover must absorb.
			if err := robust.Hit(sfctx, fault); err != nil {
				return nil, robust.WithTraceID(err, tr.ID())
			}
			if s.leaderGate != nil {
				s.leaderGate(sfctx, key)
			}
			spec := in.spec
			if !in.parsed { // the key came from the memo; solving needs the spec
				var err error
				if spec, err = q.parse(in.body); err != nil {
					return nil, robust.WithTraceID(err, tr.ID())
				}
			}
			answer, err := q.solve(s, sfctx, spec)
			if err != nil {
				return nil, robust.WithTraceID(err, tr.ID())
			}
			s.solveCount.Add(1)
			s.mSolves.Inc()
			renderSpan := obs.StartTraceSpanLeaf(sfctx, StageRender)
			rendered, err := q.render(answer)
			renderSpan.End()
			if err != nil {
				return nil, robust.WithTraceID(err, tr.ID())
			}
			s.cache.Put(key, rendered)
			return rendered, nil
		})
		sfSpan.End()
		if shared {
			s.mShared.Inc()
		}
		tr.SetAttr("shared", fmt.Sprintf("%t", shared))
		if err != nil {
			WriteModelError(w, r, err)
			return
		}
		flag := "miss"
		if shared {
			flag = "shared"
		}
		tr.SetAttr("cache", flag)
		writeCached(ctx, w, resp, flag)
	})
}

// writeCached writes a pre-rendered JSON response with its cache
// disposition header, recording the write as a trace stage.
func writeCached(ctx context.Context, w http.ResponseWriter, body []byte, disposition string) {
	span := obs.StartTraceSpanLeaf(ctx, StageWrite)
	defer span.End()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, disposition)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
