package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json,
// the metrics this program prints, and layers.json in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range names {
		if !slices.Contains(workloadNames, w) {
			t.Errorf("BENCHMARK.json names unknown workload %q", w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if p := b.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, layers.json %s %s %s", i, p, m.Name, m.Unit, m.Better)
		}
		for _, w := range m.On {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
}
