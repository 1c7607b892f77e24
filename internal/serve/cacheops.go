package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/scaling"
)

// CacheInfoResponse is the GET /v1/cache body: measured occupancy and
// traffic for the three caching layers — the body → fingerprint memo in
// front, the rendered-response LRU behind it, and the memoized solver
// cache underneath. ?top=N sizes the hottest-fingerprint rankings
// (default 10).
type CacheInfoResponse struct {
	KeyMemo       KeyMemoInfo   `json:"key_memo"`
	ResponseCache RespCacheInfo `json:"response_cache"`
	SolverCache   scaling.Info  `json:"solver_cache"`
}

// CachePurgeResponse is the DELETE /v1/cache body.
type CachePurgeResponse struct {
	KeyMemoEntriesPurged  int `json:"key_memo_entries_purged"`
	ResponseEntriesPurged int `json:"response_entries_purged"`
	SolverEntriesPurged   int `json:"solver_entries_purged"`
}

// CacheInfo returns every cache layer's introspection — the same view
// GET /v1/cache serves. Exported so fleet partition tests (and
// embedders) can assert keyspace placement without going through HTTP.
func (s *Server) CacheInfo(topN int) CacheInfoResponse {
	return CacheInfoResponse{
		KeyMemo:       s.memo.Info(),
		ResponseCache: s.cache.Info(topN),
		SolverCache:   s.engine.Cache.Info(topN),
	}
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	topN := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, r, http.StatusBadRequest, KindBadRequest,
				fmt.Errorf("invalid top %q (want a non-negative integer)", v))
			return
		}
		topN = n
	}
	WriteJSON(w, http.StatusOK, s.CacheInfo(topN))
}

// handleCacheDelete empties every cache layer (fleet ops: after a model
// or catalog change, stale rendered responses and memoized solves must
// not survive). Lifetime hit/miss counters are preserved.
func (s *Server) handleCacheDelete(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, CachePurgeResponse{
		KeyMemoEntriesPurged:  s.memo.Purge(),
		ResponseEntriesPurged: s.cache.Purge(),
		SolverEntriesPurged:   s.engine.Cache.Purge(),
	})
}
