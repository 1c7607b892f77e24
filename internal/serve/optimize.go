package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/optimize"
	"repro/internal/scenario"
)

// OptimizeResponse is the POST /v1/optimize response body.
type OptimizeResponse struct {
	ID        string `json:"id"`
	Title     string `json:"title,omitempty"`
	Objective string `json:"objective"`
	// Best is the maximal design; Frontier the objective-vs-cost Pareto
	// frontier in ascending cost order, each point carrying its
	// binding-wall attribution.
	Best     optimize.DesignPoint   `json:"best"`
	Frontier []optimize.DesignPoint `json:"frontier"`
	// Stacks counts the eligible stacks searched; Candidates equals it.
	Stacks     int `json:"stacks"`
	Candidates int `json:"candidates"`
	// Report is the rendered text report — the same tables `bandwall
	// optimize` prints.
	Report string `json:"report"`
}

// optimizeQuery declares POST /v1/optimize: an inverse design-space
// search run by the optimizer that shares the engine's solver cache.
var optimizeQuery = query[*scenario.OptimizeSpec, *optimize.Result]{
	route:       "optimize",
	parse:       scenario.ParseOptimizeSpec,
	fingerprint: FingerprintOptimizeSpec,
	solve: func(s *Server, ctx context.Context, osp *scenario.OptimizeSpec) (*optimize.Result, error) {
		return s.opt.Search(ctx, osp)
	},
	render: renderOptimizeResult,
}

// FingerprintOptimizeSpec derives the response-cache, singleflight, and
// gateway-routing key for an optimize query: the SHA-256 of its canonical
// JSON under an "optimize|" domain prefix, so an optimize fingerprint can
// never collide with an eval fingerprint in the shared response cache.
func FingerprintOptimizeSpec(osp *scenario.OptimizeSpec) (string, error) {
	canon, err := json.Marshal(osp)
	if err != nil {
		return "", fmt.Errorf("canonicalizing optimize spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte("optimize|"))
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// renderOptimizeResult builds the response body bytes for one search.
func renderOptimizeResult(res *optimize.Result) ([]byte, error) {
	var report strings.Builder
	for _, tb := range res.Tables() {
		report.WriteString(tb.String())
	}
	return json.Marshal(OptimizeResponse{
		ID:         res.Spec.ID,
		Title:      res.Spec.Title,
		Objective:  res.Objective,
		Best:       res.Best,
		Frontier:   res.Frontier,
		Stacks:     res.Stacks,
		Candidates: res.Candidates,
		Report:     report.String(),
	})
}
