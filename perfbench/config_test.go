package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesReport pins BENCHMARK.json, workloads.json and
// the metric tables the report prints to the same names and units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []MetricDef, documented map[string]bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the report %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], report %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if !documented[want[i].Name] {
				t.Errorf("%s %s is not described in workloads.json", what, want[i].Name)
			}
		}
		if len(documented) != len(want) {
			t.Errorf("%s: workloads.json describes %d metrics, the report has %d", what, len(documented), len(want))
		}
	}
	e2e, layers := map[string]bool{}, map[string]bool{}
	for name := range cfg.EndToEnd {
		e2e[name] = true
	}
	for name := range cfg.PerLayer {
		layers[name] = true
	}
	same("end_to_end", bench.EndToEnd, endToEnd, e2e)
	same("per_layer", bench.PerLayer, perLayer, layers)

	var names, configured []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for name := range cfg.Workloads {
		configured = append(configured, name)
	}
	sort.Strings(names)
	sort.Strings(configured)
	if len(names) != len(configured) {
		t.Fatalf("BENCHMARK.json workloads %v, workloads.json %v", names, configured)
	}
	for i := range names {
		if names[i] != configured[i] {
			t.Fatalf("BENCHMARK.json workloads %v, workloads.json %v", names, configured)
		}
	}
}
