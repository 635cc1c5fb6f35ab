package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestDeclaredMetricsMatchBenchmarkJSON pins the Go metric tables and
// workload names to BENCHMARK.json at the repository root.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for _, c := range []struct {
		what      string
		json, src []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go %d", c.what, len(c.json), len(c.src))
			continue
		}
		for i := range c.src {
			if c.json[i] != c.src[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %+v", c.what, i, c.json[i], c.src[i])
			}
		}
	}
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and the traced
// ladder at tiny sizes: each must pass its checks and report exactly the
// declared metrics (run enforces the latter).
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range sortedWorkloads() {
		out, err := run(tinyBench(t), name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Correct || out.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, out.Correct, out.Attempted, out.Failed)
		}
		for _, s := range endToEnd {
			if out.Metrics[s.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, s.Name, out.Metrics[s.Name].Value)
			}
		}
	}
	out, err := run(tinyBench(t), "serve-mixed", true)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !out.Correct {
		t.Fatalf("traced: attempted=%d failed=%d", out.Attempted, out.Failed)
	}
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
