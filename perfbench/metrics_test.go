package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []MetricDef `json:"end_to_end"`
		PerLayer []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []MetricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestCheckMetricSet(t *testing.T) {
	defs := []MetricDef{{"a_ms", "ms", "lower"}}
	if err := checkMetricSet(map[string]Metric{"a_ms": {Value: 1, Unit: "ms"}}, defs); err != nil {
		t.Error(err)
	}
	for _, got := range []map[string]Metric{
		{},
		{"a_ms": {Value: 1, Unit: "s"}},
		{"a_ms": {Value: 1, Unit: "ms"}, "b": {Unit: "ms"}},
	} {
		if checkMetricSet(got, defs) == nil {
			t.Errorf("%v accepted", got)
		}
	}
}
