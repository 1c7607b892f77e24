package main

import (
	"context"
	"testing"
	"time"
)

// TestServeWorkloadsRunClean runs one round of each server workload end to
// end: every answer checked, every identity guard holding, every bounded
// metric measured.
func TestServeWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live servers")
	}
	for _, w := range []string{"serve-hot", "serve-cold", "fleet-hot"} {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 3, seconds: time.Nanosecond, conns: 2, examples: testExamples}
			tl, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tl.failed != 0 || len(tl.guards) != 0 || tl.attempted == 0 {
				t.Fatalf("%d of %d failed %v, guards %v", tl.failed, tl.attempted, tl.errs, tl.guards)
			}
			for name, m := range tl.endToEnd() {
				if !(m.Value > 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}
