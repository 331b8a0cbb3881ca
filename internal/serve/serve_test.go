package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"leodivide"
	"leodivide/internal/obs"
)

// The test scale: small enough that dataset generation stays in the
// hundreds of milliseconds, the same scale the golden corpus freezes.
const testScale = 0.02

var (
	testDatasetOnce sync.Once
	testDataset     *leodivide.Dataset
	testDatasetErr  error
)

// sharedDataset generates the scale-0.02 dataset once for the whole
// package; the server treats it as immutable, so sharing is safe.
func sharedDataset(t testing.TB) *leodivide.Dataset {
	t.Helper()
	testDatasetOnce.Do(func() {
		cfg := leodivide.DefaultRunConfig()
		cfg.Scale = testScale
		testDataset, testDatasetErr = cfg.Generate(context.Background())
	})
	if testDatasetErr != nil {
		t.Fatal(testDatasetErr)
	}
	return testDataset
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	cfg.Scenario = leodivide.ScenarioConfig{RunConfig: base}
	if cfg.Dataset == nil {
		cfg.Dataset = sharedDataset(t)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postScenario(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func scenarioBody(experiment string, extra string) string {
	body := fmt.Sprintf(`{"schema":%q,"experiment":%q`, leodivide.ScenarioSchema, experiment)
	if extra != "" {
		body += "," + extra
	}
	return body + "}"
}

// TestScenarioCacheHit is the acceptance check: serving the same
// scenario twice hits the cache — the second response arrives without
// re-running the experiment (obs run counter unchanged) and is
// byte-identical to the first.
func TestScenarioCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	runs := obs.Default.Counter("experiment.table1.runs")

	before := runs.Value()
	resp1, body1 := postScenario(t, ts.URL, scenarioBody("table1", ""))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get(CacheHeader); h != "miss" {
		t.Errorf("first request %s = %q, want miss", CacheHeader, h)
	}
	afterFirst := runs.Value()
	if afterFirst != before+1 {
		t.Fatalf("first request ran the experiment %d times, want 1", afterFirst-before)
	}

	resp2, body2 := postScenario(t, ts.URL, scenarioBody("table1", ""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("second request %s = %q, want hit", CacheHeader, h)
	}
	if got := runs.Value(); got != afterFirst {
		t.Errorf("second request re-ran the experiment (runs %d -> %d); cache must serve it", afterFirst, got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response differs from the original bytes")
	}

	var r Response
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	cfg := leodivide.DefaultScenarioConfig("table1")
	cfg.Scale = testScale
	wantKey, err := cfg.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if r.Key != wantKey {
		t.Errorf("response key %q, want canonical key %q", r.Key, wantKey)
	}
	if r.Schema != leodivide.ScenarioSchema || r.Experiment != "table1" || r.Scale != testScale {
		t.Errorf("response envelope %+v mismatches the scenario", r)
	}
}

// TestScenarioConcurrentIdentical: after a warm-up, N concurrent
// identical queries are all served from the cache — zero further
// experiment runs, byte-identical bodies — under `go test -race`.
func TestScenarioConcurrentIdentical(t *testing.T) {
	const n = 16
	_, ts := newTestServer(t, Config{})
	runs := obs.Default.Counter("experiment.fig1.runs")
	body := scenarioBody("fig1", "")

	_, warm := postScenario(t, ts.URL, body)
	before := runs.Value()

	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	if got := runs.Value(); got != before {
		t.Errorf("concurrent identical queries ran the experiment %d more times, want 0", got-before)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, warm) {
			t.Errorf("response %d differs from the warm response", i)
		}
	}
}

// TestScenarioKnobs: a promoted knob (max_oversub) changes the key and
// the result; the default and an explicit default collapse to one key.
func TestScenarioKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("findings", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("findings", `"max_oversub":20`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default max_oversub should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit default produced different bytes than the implicit default")
	}

	respLoose, loose := postScenario(t, ts.URL, scenarioBody("findings", `"max_oversub":35`))
	if respLoose.StatusCode != http.StatusOK {
		t.Fatalf("max_oversub 35: %d %s", respLoose.StatusCode, loose)
	}
	if respLoose.Header.Get(CacheHeader) != "miss" {
		t.Errorf("a new oversubscription cap must be a cache miss")
	}
	var d, l Response
	if err := json.Unmarshal(def, &d); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(loose, &l); err != nil {
		t.Fatal(err)
	}
	if d.Key == l.Key {
		t.Error("different oversubscription caps share a canonical key")
	}
	if bytes.Equal(def, loose) {
		t.Error("findings at 35:1 should differ from 20:1 (F1 depends on the cap)")
	}
}

func TestScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"wrong schema", `{"schema":"nope/v9","experiment":"table1"}`, http.StatusBadRequest},
		{"no schema", `{"experiment":"table1"}`, http.StatusBadRequest},
		{"v1 schema", `{"schema":"leodivide-serve/v1","experiment":"table1"}`, http.StatusBadRequest},
		{"v2 schema", `{"schema":"leodivide-serve/v2","experiment":"fig1"}`, http.StatusBadRequest},
		{"v2 schema with region", `{"schema":"leodivide-serve/v2","experiment":"fig1","region":"us"}`, http.StatusBadRequest},
		{"missing experiment", scenarioBody("", ""), http.StatusBadRequest},
		{"unknown experiment", scenarioBody("tableau", ""), http.StatusBadRequest},
		{"unknown field", scenarioBody("table1", `"warp":9`), http.StatusBadRequest},
		{"negative oversub", scenarioBody("table2", `"max_oversub":-5`), http.StatusBadRequest},
		{"share above 1", scenarioBody("fig4", `"afford_share":1.5`), http.StatusBadRequest},
		{"descending spreads", scenarioBody("fig3", `"spreads":[10,2]`), http.StatusBadRequest},
		{"unknown plan", scenarioBody("fig4", `"plans":["Dialup Deluxe"]`), http.StatusBadRequest},
		{"findings without Starlink", scenarioBody("findings", `"plans":["Xfinity 300"]`), http.StatusBadRequest},
		{"seed mismatch", scenarioBody("table1", `"seed":99`), http.StatusConflict},
		{"scale mismatch", scenarioBody("table1", `"scale":0.5`), http.StatusConflict},
		{"not json", `table1 please`, http.StatusBadRequest},
		{"trailing data", scenarioBody("table1", "") + ` {"junk":1}`, http.StatusBadRequest},
		{"body over cap", scenarioBody("table1", `"plans":["`+strings.Repeat("x", maxScenarioBody)+`"]`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postScenario(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not {\"error\": ...}", body)
			}
		})
	}
}

// A plan filter is a real knob: fig4 restricted to one plan returns a
// smaller comparison.
func TestScenarioPlanFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postScenario(t, ts.URL,
		scenarioBody("fig4", `"plans":["Starlink Residential"]`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig4 with plan filter: %d %s", resp.StatusCode, body)
	}
	var r struct {
		Result leodivide.Fig4Result `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Results) != 1 || r.Result.Results[0].Plan.Name != "Starlink Residential" {
		t.Errorf("filtered fig4 returned %d results, want exactly Starlink Residential", len(r.Result.Results))
	}
}

// TestScenarioConstellation: selecting a constellation is a real knob —
// a new cache key and a different result — and unknown names are a 400
// that lists the valid options, mirroring the unknown-experiment shape.
func TestScenarioConstellation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("xconst", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("xconst", `"constellation":"starlink"`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default constellation should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit starlink produced different bytes than the implicit default")
	}

	respK, kuiper := postScenario(t, ts.URL, scenarioBody("table2", `"constellation":"kuiper"`))
	if respK.StatusCode != http.StatusOK {
		t.Fatalf("kuiper table2: %d %s", respK.StatusCode, kuiper)
	}
	if respK.Header.Get(CacheHeader) != "miss" {
		t.Error("a new constellation must be a cache miss")
	}
	_, starlink := postScenario(t, ts.URL, scenarioBody("table2", ""))
	if bytes.Equal(kuiper, starlink) {
		t.Error("kuiper table2 should differ from starlink table2")
	}

	respU, bad := postScenario(t, ts.URL, scenarioBody("table2", `"constellation":"iridium"`))
	if respU.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown constellation: %d %s, want 400", respU.StatusCode, bad)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bad, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, `"iridium"`) {
		t.Errorf("error %q does not name the unknown constellation", e.Error)
	}
	for _, name := range []string{"starlink", "starlink-gen2", "kuiper", "oneweb"} {
		if !strings.Contains(e.Error, name) {
			t.Errorf("error %q does not list valid option %q", e.Error, name)
		}
	}
}

// TestScenarioRegion: the region selector is a real knob — an explicit
// default shares the default's cache entry, a sibling geography is a
// fresh miss with a different result (served lazily from a dataset
// generated at the server's own seed/scale), and unknown names are a
// 400 listing the valid set.
func TestScenarioRegion(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, def := postScenario(t, ts.URL, scenarioBody("fig1", ""))
	resp, explicit := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"us"`))
	if h := resp.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("explicit default region should share the default's cache entry, got %q", h)
	}
	if !bytes.Equal(def, explicit) {
		t.Error("explicit us produced different bytes than the implicit default")
	}

	respB, brazil := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"brazil-rural"`))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("brazil-rural fig1: %d %s", respB.StatusCode, brazil)
	}
	if respB.Header.Get(CacheHeader) != "miss" {
		t.Error("a new region must be a cache miss")
	}
	if bytes.Equal(brazil, def) {
		t.Error("brazil-rural fig1 should differ from us fig1")
	}
	respB2, brazil2 := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"brazil-rural"`))
	if h := respB2.Header.Get(CacheHeader); h != "hit" {
		t.Errorf("repeated brazil-rural query %s = %q, want hit", CacheHeader, h)
	}
	if !bytes.Equal(brazil, brazil2) {
		t.Error("repeated brazil-rural query returned different bytes")
	}
	respT, taipei := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"taipei-dense"`))
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("taipei-dense fig1: %d %s", respT.StatusCode, taipei)
	}
	if bytes.Equal(taipei, brazil) || bytes.Equal(taipei, def) {
		t.Error("taipei-dense fig1 should differ from both siblings")
	}

	respU, bad := postScenario(t, ts.URL, scenarioBody("fig1", `"region":"atlantis"`))
	if respU.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown region: %d %s, want 400", respU.StatusCode, bad)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(bad, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, `"atlantis"`) {
		t.Errorf("error %q does not name the unknown region", e.Error)
	}
	for _, name := range []string{"us", "brazil-rural", "taipei-dense"} {
		if !strings.Contains(e.Error, name) {
			t.Errorf("error %q does not list valid option %q", e.Error, name)
		}
	}
}

func TestRegionsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/regions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []regionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"us", "brazil-rural", "taipei-dense"}
	if len(list) != len(wantNames) {
		t.Fatalf("listed %d regions, want %d", len(list), len(wantNames))
	}
	for i, r := range list {
		if r.Name != wantNames[i] {
			t.Errorf("region %d = %q, want %q", i, r.Name, wantNames[i])
		}
		if r.DisplayName == "" || r.Description == "" {
			t.Errorf("region %q has empty display name or description: %+v", r.Name, r)
		}
	}
}

func TestConstellationsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/constellations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []constellationInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"starlink", "starlink-gen2", "kuiper", "oneweb"}
	if len(list) != len(wantNames) {
		t.Fatalf("listed %d constellations, want %d", len(list), len(wantNames))
	}
	for i, c := range list {
		if c.Name != wantNames[i] {
			t.Errorf("constellation %d = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Satellites <= 0 || c.Shells <= 0 || c.CellCapacityGbps <= 0 {
			t.Errorf("constellation %q has degenerate spec: %+v", c.Name, c)
		}
		if c.CostSatelliteUSD <= 0 || c.CostLifeYears <= 0 {
			t.Errorf("constellation %q has degenerate cost defaults: %+v", c.Name, c)
		}
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	want := leodivide.NewModel().Experiments()
	if len(list) != len(want) {
		t.Fatalf("listed %d experiments, registry has %d", len(list), len(want))
	}
	for i, e := range want {
		if list[i].Name != e.Name {
			t.Errorf("experiment %d = %q, want %q", i, list[i].Name, e.Name)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 miss, 1 hit", st)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", st.CacheEntries)
	}
	if st.CacheBytes <= 0 {
		t.Errorf("cache bytes = %d, want > 0 after a cached result", st.CacheBytes)
	}
	if st.CacheMaxBytes != DefaultCacheBytes {
		t.Errorf("cache max bytes = %d, want the default %d", st.CacheMaxBytes, DefaultCacheBytes)
	}
}

// TestEvictionsReachMetrics: memo evictions surface both in
// /v1/stats and on the process-wide serve.cache.evictions counter.
func TestEvictionsReachMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 1})
	before := metricEvictions.Value()
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	postScenario(t, ts.URL, scenarioBody("fig1", ""))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Evictions != 1 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v, want 1 eviction and 1 entry", st)
	}
	if got := metricEvictions.Value() - before; got != 1 {
		t.Errorf("serve.cache.evictions advanced by %d, want 1", got)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, b)
	}
	postScenario(t, ts.URL, scenarioBody("table1", ""))
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "serve.requests") {
		t.Errorf("metrics endpoint does not expose serve.requests:\n%.400s", b)
	}
}

// TestRunGracefulShutdown: Run serves until its context is cancelled,
// then drains and returns nil.
func TestRunGracefulShutdown(t *testing.T) {
	base := leodivide.DefaultRunConfig()
	base.Scale = testScale
	s, err := New(context.Background(), Config{
		Scenario: leodivide.ScenarioConfig{RunConfig: base},
		Dataset:  sharedDataset(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// FuzzScenarioHandler posts arbitrary bodies through the server's HTTP
// handler: it must never panic, and every answer must be a JSON body
// with a non-5xx status. A body the wire parser rejects is a 4xx; one
// it accepts is answered, so no input may reach a server error. The
// seeds are the wire parser's own corpus (FuzzScenarioRequest).
func FuzzScenarioHandler(f *testing.F) {
	seeds, err := filepath.Glob("../../testdata/fuzz/FuzzScenarioRequest/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzScenarioRequest seeds (%v)", err)
	}
	for _, path := range seeds {
		f.Add(readFuzzSeed(f, path))
	}
	f.Add([]byte(scenarioBody("fig4", `"plans":["Starlink Residential"]`)))
	s, _ := newTestServer(f, Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenario", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q for body %q", ct, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("status %d body is not JSON: %q", rec.Code, rec.Body)
		}
	})
}

// readFuzzSeed decodes a one-value `go test fuzz v1` corpus file holding
// a []byte literal.
func readFuzzSeed(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(value, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		tb.Fatalf("%s: not a one-value []byte fuzz corpus file", path)
	}
	v, err := strconv.Unquote(lit)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(v)
}
