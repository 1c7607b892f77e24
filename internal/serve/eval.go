package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/scaling"
	"repro/internal/scenario"
)

// EvalResponse is the POST /v1/eval response body.
type EvalResponse struct {
	ID     string             `json:"id"`
	Title  string             `json:"title,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Points []EvalPoint        `json:"points"`
	// Report is the rendered text report — the same tables `bandwall
	// eval` prints.
	Report string `json:"report"`
}

// EvalPoint is one solved (case, axis) cell.
type EvalPoint struct {
	Case  string  `json:"case"`
	Ratio float64 `json:"ratio"`
	N2    float64 `json:"n2"`
	Cores int     `json:"cores"`
	Exact float64 `json:"exact"`
	// BindingWall names the constraint that limits this cell ("die" when
	// every wall allows the whole processor die); Walls
	// reports every wall's limit, usage, and headroom at the solved core
	// count ("bandwidth" alone for legacy single-envelope specs).
	BindingWall string                 `json:"binding_wall,omitempty"`
	Walls       []scaling.WallHeadroom `json:"walls,omitempty"`
}

// evalQuery declares POST /v1/eval: a scenario.Spec evaluated by the
// shared engine, itself backed by the memoized solver cache.
var evalQuery = query[*scenario.Spec, *scenario.Outcome]{
	route:       "eval",
	parse:       scenario.ParseSpec,
	fingerprint: FingerprintSpec,
	solve: func(s *Server, ctx context.Context, sp *scenario.Spec) (*scenario.Outcome, error) {
		return s.engine.Evaluate(ctx, sp)
	},
	render: renderOutcome,
}

// FingerprintSpec derives the response-cache and singleflight key: the
// SHA-256 of the parsed spec's canonical JSON. Marshaling the *parsed*
// struct (not the request bytes) normalizes field order, whitespace,
// and numeric spellings, so two textually different bodies describing
// the same query collapse onto one key — the request-level analogue of
// the solver-cache fingerprint. The fleet gateway routes on it through
// ReadKey: the fingerprint that names a response in a replica's cache
// is the fingerprint that picks the replica.
func FingerprintSpec(sp *scenario.Spec) (string, error) {
	canon, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("canonicalizing spec: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// renderOutcome builds the response body bytes for one evaluated
// outcome.
func renderOutcome(o *scenario.Outcome) ([]byte, error) {
	resp := EvalResponse{
		ID:     o.Spec.ID,
		Title:  o.Spec.Title,
		Values: o.Values,
		Points: make([]EvalPoint, 0, len(o.Points)),
	}
	labels := make([]string, len(o.Spec.Cases))
	for i, c := range o.Spec.Cases {
		labels[i] = c.Label
		if labels[i] == "" {
			labels[i] = fmt.Sprintf("case %d", i)
		}
	}
	for _, pt := range o.Points {
		resp.Points = append(resp.Points, EvalPoint{
			Case:        labels[pt.Case],
			Ratio:       pt.Gen.Ratio,
			N2:          pt.Gen.N,
			Cores:       pt.Cores,
			Exact:       pt.Exact,
			BindingWall: pt.Binding,
			Walls:       pt.Walls,
		})
	}
	var report strings.Builder
	tables, charts := o.Render()
	for _, tb := range tables {
		report.WriteString(tb.String())
	}
	for _, ch := range charts {
		report.WriteString(ch.String())
	}
	resp.Report = report.String()
	return json.Marshal(resp)
}
