package exp

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The golden-value guard: every registry experiment's Values map is pinned
// to testdata/golden_values.json. Refactors of the figure drivers (like the
// scenario-engine rewrite) must reproduce the pinned numbers bit-for-bit;
// run `go test ./internal/exp -run TestGoldenValues -update` to re-pin
// after an intentional model change.
//
// The file is generated with Options{Quick: true}: every driver is
// deterministic under fixed seeds, and quick mode keeps the guard fast
// enough to run on every CI push. The registry runs through RunSuite, the
// runner behind `bandwall run` and `bandwall report`.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_values.json from the current drivers")

const goldenPath = "testdata/golden_values.json"

// goldenSkip lists experiments excluded from the bit-identical guard, with
// the reason. Keep this empty unless an experiment becomes legitimately
// nondeterministic.
var goldenSkip = map[string]string{}

func TestGoldenValues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	outcomes, err := RunSuite(context.Background(), Registry, quick(), SuiteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	current := make(map[string]map[string]float64, len(outcomes))
	for _, oc := range outcomes {
		current[oc.Result.ID] = oc.Result.Values
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", goldenPath, len(current))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update): %v", err)
	}
	var golden map[string]map[string]float64
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}

	var goldenIDs []string
	for id := range golden {
		goldenIDs = append(goldenIDs, id)
	}
	sort.Strings(goldenIDs)
	for _, id := range goldenIDs {
		if reason, skip := goldenSkip[id]; skip {
			t.Logf("%s: skipped (%s)", id, reason)
			continue
		}
		got, ok := current[id]
		if !ok {
			t.Errorf("%s: experiment pinned in golden file but missing from registry", id)
			continue
		}
		want := golden[id]
		for key, wv := range want {
			gv, ok := got[key]
			if !ok {
				t.Errorf("%s: value %q missing (have %d keys)", id, key, len(got))
				continue
			}
			if math.Float64bits(gv) != math.Float64bits(wv) {
				t.Errorf("%s: %s = %v (bits %#x), golden %v (bits %#x)",
					id, key, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Errorf("%s: new value %q not pinned in golden file (re-run with -update if intentional)", id, key)
			}
		}
	}
	for id := range current {
		if _, ok := golden[id]; !ok {
			t.Errorf("%s: experiment not pinned in golden file (re-run with -update)", id)
		}
	}
}
