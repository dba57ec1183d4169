package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads and the tables in this package are
// what the harness runs; they name the same workloads, metrics, units,
// directions and bounds, so neither can drift from the other.
func TestManifestMatchesHarnessTables(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d; the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q); harness has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters; the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(m.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, def := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != lower || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v; harness has %+v, lower", i, got, def)
		}
		if def.Name == "setup_s" {
			setupBound = def.Bound
		}
		maxBound = max(maxBound, def.Bound)
	}
	if setupBound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s has bound %v, the largest is %v; setup_s must have the largest and none may exceed 0.25", setupBound, maxBound)
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, def := range perLayer {
		got := m.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v; harness has %s, %s, %s", i, got, def.Name, def.Unit, def.Better)
		}
		if seen[def.Name] {
			t.Errorf("per-layer metric %s is listed twice", def.Name)
		}
		seen[def.Name] = true
	}
	for _, def := range endToEnd {
		if seen[def.Name] {
			t.Errorf("%s is both an end-to-end and a per-layer metric", def.Name)
		}
	}
}
