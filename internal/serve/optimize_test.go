package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/optimize"
	"repro/internal/scenario"
)

// optimizeSpecBody is a small inverse query: 3 catalog entries on the
// 32-CEA chip under the paper's constant envelope.
const optimizeSpecBody = `{
  "id": "serve-opt",
  "n2": 32,
  "budget": {"envelope": 1},
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
  ]
}`

func postOptimize(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, base+"/v1/optimize", body)
}

// TestOptimizeHappyPath round-trips an inverse query and pins it against
// a direct in-process search: same best design, same frontier, and a
// reordered spelling and one carrying the ignored split must both be
// byte-identical response-cache hits.
func TestOptimizeHappyPath(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postOptimize(t, ts.URL, optimizeSpecBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("first request cache disposition = %q, want miss", got)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(data, &or); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}

	osp, err := scenario.ParseOptimizeSpec([]byte(optimizeSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	want, err := optimize.New().Search(context.Background(), osp)
	if err != nil {
		t.Fatal(err)
	}
	if or.ID != "serve-opt" || or.Objective != want.Objective {
		t.Errorf("response id/objective = %q/%q, want serve-opt/%q", or.ID, or.Objective, want.Objective)
	}
	if or.Best.Label != want.Best.Label || or.Best.Cores != want.Best.Cores ||
		or.Best.Cost != want.Best.Cost || or.Best.Binding != want.Best.Binding {
		t.Errorf("served best = %s %d cores @ cost %g under %s, want %s %d @ %g under %s",
			or.Best.Label, or.Best.Cores, or.Best.Cost, or.Best.Binding,
			want.Best.Label, want.Best.Cores, want.Best.Cost, want.Best.Binding)
	}
	if len(or.Frontier) != len(want.Frontier) {
		t.Fatalf("served frontier has %d points, want %d", len(or.Frontier), len(want.Frontier))
	}
	for i, w := range want.Frontier {
		g := or.Frontier[i]
		if g.Label != w.Label || g.Cores != w.Cores || g.Cost != w.Cost || g.Binding != w.Binding {
			t.Errorf("frontier[%d] = %s %d cores @ cost %g under %s, want %s %d @ %g under %s",
				i, g.Label, g.Cores, g.Cost, g.Binding, w.Label, w.Cores, w.Cost, w.Binding)
		}
	}
	if or.Stacks != want.Stacks || or.Candidates != want.Candidates {
		t.Errorf("served stacks/candidates = %d/%d, want %d/%d", or.Stacks, or.Candidates, want.Stacks, want.Candidates)
	}
	if !strings.Contains(or.Report, "frontier") && !strings.Contains(or.Report, "Frontier") {
		t.Errorf("report does not mention the frontier:\n%s", or.Report)
	}

	// Equivalent spelling (reordered fields) must hit the cache with the
	// identical rendered body.
	reordered := `{
  "catalog": [
    {"name": "Fltr", "params": {"unused": 0.4}, "cost": 1},
    {"name": "LC", "params": {"ratio": 2}, "cost": 1.5},
    {"name": "DRAM", "params": {"density": 8}, "cost": 4}
  ],
  "budget": {"envelope": 1},
  "n2": 32,
  "id": "serve-opt"
}`
	resp2, data2 := postOptimize(t, ts.URL, reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request status %d: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("second request cache disposition = %q, want hit", got)
	}
	if !bytes.Equal(data, data2) {
		t.Error("cached response differs from the original")
	}

	// The ignored split field shares the plain body's key.
	withSplit := strings.Replace(optimizeSpecBody, `"n2": 32,`, `"n2": 32, "split": {"min": 0.5, "max": 2, "points": 3},`, 1)
	resp3, data3 := postOptimize(t, ts.URL, withSplit)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("request with split: status %d: %s", resp3.StatusCode, data3)
	}
	if got := resp3.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("request with split: cache disposition = %q, want hit", got)
	}
	if !bytes.Equal(data, data3) {
		t.Error("response with split differs from the original")
	}
}

// TestOptimizeDomainError maps a bad query onto 400 with the domain kind.
func TestOptimizeDomainError(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	resp, data := postOptimize(t, ts.URL, `{"id":"bad","n2":32,"objective":"watts"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	he := decodeError(t, data)
	if he.Kind != "domain" || !strings.Contains(he.Error, "objective") {
		t.Errorf("error = %+v, want domain objective error", he)
	}
}

// TestOptimizeEvalKeysDisjoint guards the shared response cache: an
// optimize query and an eval spec that marshal to different canonical
// bytes obviously differ, but even a hypothetical collision of canonical
// JSON cannot alias because the optimize fingerprint is domain-prefixed.
func TestOptimizeEvalKeysDisjoint(t *testing.T) {
	osp, err := scenario.ParseOptimizeSpec([]byte(optimizeSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	okey, err := FingerprintOptimizeSpec(osp)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.ParseSpec([]byte(stackedSpec))
	if err != nil {
		t.Fatal(err)
	}
	ekey, err := FingerprintSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if okey == ekey {
		t.Fatal("optimize and eval fingerprints collide")
	}
	if len(okey) != len(ekey) {
		t.Errorf("fingerprint lengths differ: %d vs %d", len(okey), len(ekey))
	}
}
