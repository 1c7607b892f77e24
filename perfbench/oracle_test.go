package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/serve"
)

// answers serves every body through an in-process handler.
func answers(t *testing.T, bodies []body) [][]byte {
	t.Helper()
	h := serve.NewServer(serve.Config{}).Handler()
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.data)))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		out[i] = rec.Body.Bytes()
	}
	return out
}

func reencode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCorruptedAnswersCountAsFailures(t *testing.T) {
	ctx := context.Background()
	bodies := testCold(t, 9, 10)
	got := answers(t, bodies)
	tl := newTally()
	checkSampled(ctx, newReferee(), bodies, got, tl)
	if tl.failed != 0 {
		t.Fatalf("correct answers counted as %d failures: %v", tl.failed, tl.errs)
	}

	// One wrong core count in an eval answer, one in an optimize answer.
	var ev serve.EvalResponse
	if err := json.Unmarshal(got[0], &ev); err != nil {
		t.Fatal(err)
	}
	ev.Points[0].Cores++
	got[0] = reencode(t, ev)
	if bodies[4].path != optimizePath {
		t.Fatal("body 4 should be an optimize query")
	}
	var op serve.OptimizeResponse
	if err := json.Unmarshal(got[4], &op); err != nil {
		t.Fatal(err)
	}
	op.Best.Cores--
	got[4] = reencode(t, op)

	tl = newTally()
	tl.attempted = len(bodies)
	checkSampled(ctx, newReferee(), bodies, got, tl)
	if tl.failed != 2 {
		t.Fatalf("two corrupted answers counted as %d failures: %v", tl.failed, tl.errs)
	}
	if m := tl.endToEnd(); m["success_ratio"].Value != 0.8 {
		t.Fatalf("success_ratio = %v, want 0.8", m["success_ratio"].Value)
	}
}

func TestPinnedExampleValues(t *testing.T) {
	ctx := context.Background()
	ex, err := loadExamples(testExamples)
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, ex)
	ref := newReferee()
	for i, b := range ex {
		if err := ref.check(ctx, b, got[i]); err != nil {
			t.Fatalf("shipped example %d: %v", i, err)
		}
	}
	// The referee must hold an answer to the pinned number even when the
	// reference engine would agree with the wrong one.
	if !strings.Contains(string(ex[0].data), `"stacked-compression"`) {
		t.Fatal("example 0 should be stacked-compression")
	}
	var ev serve.EvalResponse
	if err := json.Unmarshal(got[0], &ev); err != nil {
		t.Fatal(err)
	}
	ev.Values["cores@cc+lc"] = 17
	if err := ref.check(ctx, ex[0], reencode(t, ev)); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("a wrong pinned value passed the referee: %v", err)
	}
}

func TestExperimentChecks(t *testing.T) {
	good := &exp.Result{Values: map[string]float64{
		"alpha:commercial-avg": 0.49, "r2:SPEC-app (phased)": 0.8, "r2:OLTP-1": 0.99,
		"shared%@4cores": 17, "shared%@8cores": 16, "shared%@16cores": 15,
	}}
	if err := checkFig01(good); err != nil {
		t.Fatal(err)
	}
	if err := checkFig14(good); err != nil {
		t.Fatal(err)
	}
	bad := &exp.Result{Values: map[string]float64{
		"alpha:commercial-avg": 0.30, "r2:SPEC-app (phased)": 0.8, "r2:OLTP-1": 0.99,
		"shared%@4cores": 15, "shared%@8cores": 16, "shared%@16cores": 15,
	}}
	if checkFig01(bad) == nil {
		t.Error("fig01 check passed α = 0.30")
	}
	if checkFig14(bad) == nil {
		t.Error("fig14 check passed a rising shared fraction")
	}
}
