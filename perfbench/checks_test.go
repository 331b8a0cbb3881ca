package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"leodivide"
	"leodivide/internal/region"
	"leodivide/internal/serve"
	"leodivide/internal/sim"
)

// TestExpectedBodyMatchesServer: the direct registry run the serve
// workloads check against reproduces the server's bytes, for a hot
// scenario on a sibling region and for sweep draws.
func TestExpectedBodyMatchesServer(t *testing.T) {
	ctx := context.Background()
	base := leodivide.DefaultScenarioConfig("")
	base.Seed, base.Scale = 2, 0.02
	srv, err := serve.New(ctx, serve.Config{Scenario: base})
	if err != nil {
		t.Fatal(err)
	}
	datasets := map[string]*leodivide.Dataset{region.DefaultKey: srv.Dataset()}
	for _, key := range region.Names() {
		if key != region.DefaultKey {
			ds, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(2), leodivide.WithScale(0.02), leodivide.WithRegion(key))
			if err != nil {
				t.Fatal(err)
			}
			datasets[key] = ds
		}
	}
	reqs := []leodivide.ScenarioRequest{
		{Schema: leodivide.ScenarioSchema, Experiment: "findings", Region: "taipei-dense"},
	}
	sw := NewSweep(1, base)
	for i := 0; i < 6; i++ {
		req, _, err := sw.Next()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		want, err := ExpectedBody(ctx, base, req, datasets)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: server body differs from the direct run", body)
		}
		key, err := ToConfig(base, req).CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := responsePrefix(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(want, prefix) {
			t.Errorf("%s: body does not start with %s", body, prefix)
		}
	}
}

func TestCheckFig1(t *testing.T) {
	good := leodivide.Fig1Result{TotalLocs: AnchorTotalLocs, MaxCell: AnchorMaxCell, P99: AnchorP99, P90: AnchorP90}
	if err := CheckFig1(good); err != nil {
		t.Errorf("anchors rejected: %v", err)
	}
	bad := good
	bad.MaxCell++
	if CheckFig1(bad) == nil {
		t.Error("a shifted peak cell passed")
	}
	if CheckFig1(leodivide.Table2Result{}) == nil {
		t.Error("a non-fig1 result passed")
	}
}

func TestCheckSim(t *testing.T) {
	ok := sim.Result{Epochs: 16, MinCoveredFraction: 0.9, MeanCoveredFraction: 1, MinServedFraction: 0, MeanServedFraction: 0.2}
	if err := CheckSim(ok, 16); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	for _, bad := range []sim.Result{
		{Epochs: 15},
		{Epochs: 16, MeanServedFraction: 1.01},
		{Epochs: 16, MinCoveredFraction: -0.1},
	} {
		if CheckSim(bad, 16) == nil {
			t.Errorf("invalid result %+v passed", bad)
		}
	}
}
