package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the benchmark's
// workloads and metrics; they must be exactly the ones this program
// runs and prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	same := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, program prints %d", what, len(got), len(want))
		}
		set := map[string]bool{}
		for _, n := range want {
			set[n] = true
		}
		for _, n := range got {
			if !set[n] {
				t.Errorf("%s: %s declared but not printed", what, n)
			}
		}
	}
	same("end_to_end", names(b.EndToEnd), endToEnd)
	same("per_layer", names(b.PerLayer), perLayer())
	for _, m := range b.PerLayer {
		for _, c := range layerCounters {
			if c.name == m.Name && c.unit != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, c.unit)
			}
		}
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	var progs []string
	for _, w := range workloads {
		progs = append(progs, w.name)
	}
	same("workloads", ws, progs)
}
