package perfbench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricListsMatchManifest pins EndToEnd and Layers to the metrics
// BENCHMARK.json declares, in order and with the same units.
func TestMetricListsMatchManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []Metric `json:"end_to_end"`
		PerLayer []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, EndToEnd = %v", manifest.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, Layers) {
		t.Errorf("per_layer in BENCHMARK.json = %v, Layers = %v", manifest.PerLayer, Layers)
	}
}

func TestComplete(t *testing.T) {
	want := []Metric{{"a_ms", "ms"}, {"b", "count"}}
	out, missing, extra, err := Complete(want, map[string]Reading{
		"a_ms": {1.5, "ms"},
		"z":    {2, "count"},
		"c":    {3, "count"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := map[string]Reading{"a_ms": {1.5, "ms"}, "b": {0, "count"}}
	if !reflect.DeepEqual(out, wantOut) {
		t.Errorf("out = %v, want %v", out, wantOut)
	}
	if !reflect.DeepEqual(missing, []string{"b"}) {
		t.Errorf("missing = %v, want [b]", missing)
	}
	if !reflect.DeepEqual(extra, []string{"c", "z"}) {
		t.Errorf("extra = %v, want [c z]", extra)
	}
	if _, _, _, err := Complete(want, map[string]Reading{"a_ms": {1, "s"}}); err == nil {
		t.Error("a listed metric in the wrong unit was accepted")
	}
}
