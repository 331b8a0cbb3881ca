package leodivide

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestScenarioWireRoundTrip: a config rendered to wire form, parsed
// back strictly, and applied onto a default base reproduces the same
// canonical key — the contract that lets a query saved from the HTTP
// API replay byte-for-byte through the CLI's -scenario flag and back.
func TestScenarioWireRoundTrip(t *testing.T) {
	cfg := ScenarioConfig{
		RunConfig:       DefaultRunConfig(),
		Experiment:      "costcurve",
		Constellation:   "oneweb",
		AffordShare:     0.03,
		CostTerminalUSD: 650,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cfg.Request())
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseScenarioRequest(data)
	if err != nil {
		t.Fatalf("parse of own wire form: %v (body %s)", err, data)
	}
	got, err := req.Apply(ScenarioConfig{RunConfig: DefaultRunConfig()})
	if err != nil {
		t.Fatal(err)
	}
	gotKey, err := got.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Errorf("round-tripped key\n  %s\nwant\n  %s", gotKey, key)
	}
}

// TestScenarioRequestValidateSchema: only the current schema (or the
// empty CLI convenience) applies; v1, v2 and unknown schemas are
// rejected outright, never mapped onto a current scenario.
func TestScenarioRequestValidateSchema(t *testing.T) {
	base := ScenarioConfig{RunConfig: DefaultRunConfig()}
	for _, schema := range []string{"", ScenarioSchema} {
		req := ScenarioRequest{Schema: schema, Experiment: "table2"}
		if _, err := req.Apply(base); err != nil {
			t.Errorf("schema %q rejected: %v", schema, err)
		}
	}
	for _, schema := range []string{"leodivide-serve/v1", "leodivide-serve/v2", "nope/v9"} {
		req := ScenarioRequest{Schema: schema, Experiment: "table2"}
		if _, err := req.Apply(base); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
			t.Errorf("schema %q: Apply returned %v, want an unsupported-schema error", schema, err)
		}
		body := fmt.Sprintf(`{"schema":%q,"experiment":"table2"}`, schema)
		if _, err := ParseScenarioRequest([]byte(body)); err == nil {
			t.Errorf("schema %q: ParseScenarioRequest accepted %s", schema, body)
		}
	}
}

func TestParseScenarioRequestStrict(t *testing.T) {
	if _, err := ParseScenarioRequest([]byte(`{"experiment":"table2","warp":9}`)); err == nil {
		t.Error("unknown wire field accepted")
	}
	if _, err := ParseScenarioRequest([]byte(`{"experiment":"table2"}{}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := ParseScenarioRequest([]byte(`{"experiment":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	req, err := ParseScenarioRequest([]byte(`{"experiment":"xconst","constellation":"kuiper","seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Experiment != "xconst" || req.Constellation != "kuiper" || req.Seed == nil || *req.Seed != 7 {
		t.Errorf("parsed request %+v lost fields", req)
	}
}

// FuzzScenarioRequest: every wire body either is rejected — by
// ParseScenarioRequest, by Apply onto the default base, or by
// CanonicalKey (a scenario without an experiment or with an
// unencodable plan label has no key) — or round-trips: the applied
// config's own Request() JSON re-parses and re-applies to the same
// canonical key. The seed corpus is testdata/fuzz/FuzzScenarioRequest.
func FuzzScenarioRequest(f *testing.F) {
	f.Add([]byte(`{"schema":"leodivide-serve/v3","experiment":"table2"}`))
	base := ScenarioConfig{RunConfig: DefaultRunConfig()}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseScenarioRequest(data)
		if err != nil {
			return
		}
		cfg, err := req.Apply(base)
		if err != nil {
			return
		}
		key, err := cfg.CanonicalKey()
		if err != nil {
			return
		}
		wire, err := json.Marshal(cfg.Request())
		if err != nil {
			t.Fatalf("marshal of applied config %+v: %v", cfg, err)
		}
		req2, err := ParseScenarioRequest(wire)
		if err != nil {
			t.Fatalf("own wire form rejected: %v (body %s)", err, wire)
		}
		cfg2, err := req2.Apply(base)
		if err != nil {
			t.Fatalf("own wire form did not re-apply: %v (body %s)", err, wire)
		}
		key2, err := cfg2.CanonicalKey()
		if err != nil || key2 != key {
			t.Fatalf("round trip changed the key:\n got %q (err %v)\nwant %q\nbody %s", key2, err, key, wire)
		}
	})
}
