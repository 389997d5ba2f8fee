package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLayerTimersRun runs every timer for one short batch, so an API a
// timer calls cannot be renamed without this failing, and pins the
// timers' names to BENCHMARK.json.
func TestLayerTimersRun(t *testing.T) {
	m, err := layerTimers(1, 200, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, d := range loadTestSpec(t).PerLayer {
		named[d.Name] = true
	}
	for name, v := range m {
		if !named[name] {
			t.Errorf("timer %s is not a per_layer metric in BENCHMARK.json", name)
		}
		if v < 0 {
			t.Errorf("timer %s = %v", name, v)
		}
	}
	if len(m) < 30 {
		t.Errorf("only %d timers ran", len(m))
	}
}

// TestBenchmarkJSONNamesTheWorkloads keeps the file the driver reads and
// the table the program runs from drifting apart: every workload not
// marked ungated, in order, with the same reason.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program gates %d", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
}
