package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables here and in BENCHMARK.json must name the same
// metrics, in the same order, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		code []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i].Name != c.code[i].name || c.json[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					c.what, i, c.json[i].Name, c.json[i].Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
