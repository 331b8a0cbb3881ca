// Package serve is the scenario-query serving layer behind
// `leodivide serve`: an HTTP/JSON API answering what-if requests
// against one shared immutable in-memory Dataset.
//
// Production concerns are the point of the package:
//
//   - Every response is memoized in a bounded LRU cache keyed by the
//     scenario's canonical key (ScenarioConfig.CanonicalKey). The
//     determinism contract — a result is a pure function of the
//     scenario — is what makes a cached response exactly as good as a
//     fresh run, byte for byte.
//   - Identical in-flight queries coalesce (singleflight): one
//     experiment run feeds every concurrent requester of the same key.
//   - Experiment runs pass a bounded admission gate (par.Gate), so a
//     burst of distinct scenarios cannot oversubscribe the worker
//     pools each run fans out on.
//   - Request counts, latency histograms and cache traffic record into
//     internal/obs, so the CLI's -debug-addr endpoint (and the
//     server's own /metrics route) expose them live.
//   - Run drains connections on context cancellation (the CLI wires
//     SIGTERM/SIGINT to that context), so in-flight queries finish
//     before the process exits.
//
// Wire contract (schema leodivide-serve/v3; a body declaring any other
// schema, older ones included, is a 400, and one over 64 KiB is a 413):
//
//	POST /v1/scenario       {"schema":"leodivide-serve/v3","experiment":"xconst","region":"brazil-rural",...}
//	GET  /v1/experiments
//	GET  /v1/constellations
//	GET  /v1/regions
//	GET  /v1/stats
//	GET  /healthz
//	GET  /metrics
//
// The X-Leodivide-Cache response header reports hit, miss or coalesced;
// the body is byte-identical across all three for the same scenario.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"leodivide"
	"leodivide/internal/constellation"
	"leodivide/internal/memo"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/region"
	"leodivide/internal/spectrum"
)

// Serving-layer observability (see internal/obs): request counts and
// latency, cache traffic, and experiment admission wait.
var (
	metricRequests  = obs.Default.Counter("serve.requests")
	metricErrors    = obs.Default.Counter("serve.errors")
	metricHits      = obs.Default.Counter("serve.cache.hits")
	metricMisses    = obs.Default.Counter("serve.cache.misses")
	metricCoalesced = obs.Default.Counter("serve.cache.coalesced")
	metricEvictions = obs.Default.Counter("serve.cache.evictions")
	metricReqSecs   = obs.Default.Histogram("serve.request.seconds", obs.DurationBuckets)
	metricRunSecs   = obs.Default.Histogram("serve.run.seconds", obs.DurationBuckets)
	metricWaitSecs  = obs.Default.Histogram("serve.admission_wait.seconds", obs.DurationBuckets)
)

// CacheHeader is the response header naming how the query was served:
// "hit", "miss" or "coalesced".
const CacheHeader = "X-Leodivide-Cache"

// Config describes a Server.
type Config struct {
	// Scenario pins the dataset identity (seed, scale, parallelism,
	// calibration default) every query runs against. Its Experiment
	// field is ignored — requests name their own.
	Scenario leodivide.ScenarioConfig
	// Dataset optionally supplies a pre-generated dataset matching
	// Scenario (including its region); nil makes New generate it.
	// Queries naming a different region generate that geography lazily
	// at the same (seed, scale) identity on first use.
	Dataset *leodivide.Dataset
	// CacheEntries bounds the memoized result cache (default 1024).
	CacheEntries int
	// CacheBytes bounds the cache's total key+value bytes. 0 selects
	// the default (256 MiB); negative means unbounded by size. Without
	// a byte bound a handful of large-scale scenario responses can
	// occupy far more memory than the entry count suggests.
	CacheBytes int64
	// MaxInflight bounds concurrently running experiments (0 = one per
	// CPU, via par.Workers).
	MaxInflight int
}

// DefaultCacheBytes is the cache byte bound when Config.CacheBytes is 0.
const DefaultCacheBytes int64 = 256 << 20

// maxScenarioBody caps a POST /v1/scenario body (a request setting
// every knob is under 1 KiB); readHeaderTimeout bounds a client's
// request headers, so stalled connections cannot pile up.
const (
	maxScenarioBody   = 64 << 10
	readHeaderTimeout = 10 * time.Second
)

// Server answers scenario queries against one shared immutable dataset.
type Server struct {
	ds       *leodivide.Dataset
	base     leodivide.ScenarioConfig
	memo     *memo.Memo[string, []byte]
	maxBytes int64 // the memo's byte bound; 0 = unbounded
	gate     *par.Gate
	mux      *http.ServeMux

	// baseRegion is the geography of the shared startup dataset;
	// regionDS memoizes the sibling geographies, generated lazily at
	// the same (seed, scale) identity the first time a query names
	// them. The mutex also serializes those generations, so concurrent
	// first queries for one region cost one generation.
	baseRegion string
	regionMu   sync.Mutex
	regionDS   map[string]*leodivide.Dataset

	// Server-local traffic counters backing /v1/stats (the obs
	// counters are process-global and shared across servers).
	requests, hits, misses, coalesced, errs atomic.Int64

	// evictMu guards evictSeen, the memo eviction count already added
	// to the process-global serve.cache.evictions counter.
	evictMu   sync.Mutex
	evictSeen int64
}

// New builds a server: validates the base scenario, generates the
// shared dataset (unless cfg.Dataset supplies it) and wires the routes.
// The context cancels dataset generation.
func New(ctx context.Context, cfg Config) (*Server, error) {
	base := cfg.Scenario
	base.Experiment = ""
	if err := base.RunConfig.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ds := cfg.Dataset
	if ds == nil {
		var err error
		if ds, err = base.Generate(ctx); err != nil {
			return nil, fmt.Errorf("serve: generate dataset: %w", err)
		}
	}
	baseRegion := base.Region
	if baseRegion == "" {
		baseRegion = region.DefaultKey
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = 1024
	}
	bytes := cfg.CacheBytes
	switch {
	case bytes == 0:
		bytes = DefaultCacheBytes
	case bytes < 0:
		bytes = 0 // no byte bound
	}
	s := &Server{
		ds:         ds,
		base:       base,
		memo:       memo.New(entries, bytes, weighResponse),
		maxBytes:   bytes,
		gate:       par.NewGate(cfg.MaxInflight),
		mux:        http.NewServeMux(),
		baseRegion: baseRegion,
		regionDS:   make(map[string]*leodivide.Dataset),
	}
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/constellations", s.handleConstellations)
	s.mux.HandleFunc("GET /v1/regions", s.handleRegions)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Dataset returns the shared dataset the server answers against.
func (s *Server) Dataset() *leodivide.Dataset { return s.ds }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes immediately, in-flight requests get up to drain
// to finish. A nil error means a clean start-to-drain lifecycle.
func (s *Server) Run(ctx context.Context, ln net.Listener, drain time.Duration) error {
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- srv.Shutdown(dctx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-shutdownErr
}

// Response is the JSON body of a successful scenario query. Key is the
// scenario's canonical cache key; Result is the experiment's result
// exactly as the registry returned it.
type Response struct {
	Schema     string  `json:"schema"`
	Key        string  `json:"key"`
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Result     any     `json:"result"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// httpError is a client-facing failure: a status code and a message.
type httpError struct {
	code int
	msg  string
}

// resolve parses a scenario body with leodivide.ParseScenarioRequest,
// the CLI's strict parser, merges it into the server's base scenario
// and returns it with its canonical key. A body over maxScenarioBody is
// a 413. The HTTP contract is versioned: unlike the CLI convenience
// form, a request must declare the current schema, and any other
// declaration (older schemas included) is a 400. The region selector is a knob, not a
// dataset-identity conflict: the server generates sibling geographies
// lazily at its own (seed, scale); only seed and scale mismatches 409.
// The merge itself is ScenarioRequest.Apply, the same one the CLI's
// -scenario flag uses.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (leodivide.ScenarioConfig, string, *httpError) {
	fail := func(code int, msg string) (leodivide.ScenarioConfig, string, *httpError) {
		return leodivide.ScenarioConfig{}, "", &httpError{code, msg}
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBody))
	if errors.As(err, new(*http.MaxBytesError)) {
		return fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxScenarioBody))
	}
	if err != nil {
		return fail(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	req, err := leodivide.ParseScenarioRequest(data)
	if err != nil {
		return fail(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	if req.Schema != leodivide.ScenarioSchema {
		return fail(http.StatusBadRequest,
			fmt.Sprintf("unsupported schema %q (want %q)", req.Schema, leodivide.ScenarioSchema))
	}
	if req.Seed != nil && *req.Seed != s.base.Seed {
		return fail(http.StatusConflict,
			fmt.Sprintf("seed %d does not match the server dataset (%s)", *req.Seed, s.base.RunConfig))
	}
	//lint:ignore floatcmp dataset identity is exact, not arithmetic: a request either names the server's scale bit-for-bit or targets a different dataset
	if req.Scale != nil && *req.Scale != s.base.Scale {
		return fail(http.StatusConflict,
			fmt.Sprintf("scale %v does not match the server dataset (%s)", *req.Scale, s.base.RunConfig))
	}
	// Apply validates the experiment only when one is named; a query
	// without one has nothing to run.
	if req.Experiment == "" {
		return fail(http.StatusBadRequest, "leodivide: scenario names no experiment")
	}
	c, err := req.Apply(s.base)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	key, err := c.CanonicalKey()
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	return c, key, nil
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	metricErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errdrop HTTP error-response write; a disconnected client is not actionable
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	metricRequests.Inc()
	//lint:ignore detrand wall-clock feeds the request latency histogram only, never the response
	start := time.Now()
	defer metricReqSecs.ObserveSince(start)

	cfg, key, herr := s.resolve(w, r)
	if herr != nil {
		s.errs.Add(1)
		writeJSONError(w, herr.code, herr.msg)
		return
	}

	ctx := r.Context()
	body, status, err := s.memo.Get(ctx, key, func() ([]byte, error) {
		return s.runScenario(ctx, cfg, key)
	})
	if status == memo.StatusMiss {
		s.publishEvictions()
	}
	if err != nil {
		s.errs.Add(1)
		code := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		writeJSONError(w, code, err.Error())
		return
	}
	switch status {
	case memo.StatusHit:
		s.hits.Add(1)
		metricHits.Inc()
	case memo.StatusCoalesced:
		s.coalesced.Add(1)
		metricCoalesced.Inc()
	default:
		s.misses.Add(1)
		metricMisses.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, status.String())
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	w.Write(body)
}

// runScenario runs one experiment under the admission gate and encodes
// the response bytes that the cache will hold. The encoding happens
// once, here — hits and coalesced followers replay the identical bytes.
func (s *Server) runScenario(ctx context.Context, cfg leodivide.ScenarioConfig, key string) ([]byte, error) {
	//lint:ignore detrand wall-clock feeds the admission-wait histogram only, never the response
	waitStart := time.Now()
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	metricWaitSecs.ObserveSince(waitStart)

	m := cfg.BuildModel()
	exp, ok := m.ExperimentByName(cfg.Experiment)
	if !ok {
		// Validate checked the registry already; losing the name here
		// would be a registry bug, not a client error.
		return nil, fmt.Errorf("experiment %q vanished from the registry", cfg.Experiment)
	}
	n := cfg.Normalized()
	ds, err := s.datasetFor(ctx, n.Region)
	if err != nil {
		return nil, err
	}
	//lint:ignore detrand wall-clock feeds the run-duration histogram only, never the response
	runStart := time.Now()
	v, err := exp.Run(ctx, ds)
	if err != nil {
		return nil, err
	}
	metricRunSecs.ObserveSince(runStart)
	return json.Marshal(Response{
		Schema:     leodivide.ScenarioSchema,
		Key:        key,
		Experiment: n.Experiment,
		Seed:       n.Seed,
		Scale:      n.Scale,
		Result:     v,
	})
}

// weighResponse is the cache's byte accounting: key and value both
// count. Canonical keys are short, but the accounting should not
// assume so.
func weighResponse(key string, body []byte) int64 { return int64(len(key) + len(body)) }

// publishEvictions forwards the memo's eviction count to the
// process-global serve.cache.evictions counter. Evictions happen only
// when a miss's fill is cached, so each miss publishes; the mutex keeps
// concurrent publishers from adding an interval twice.
func (s *Server) publishEvictions() {
	_, _, _, ev := s.memo.Counters()
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if ev > s.evictSeen {
		metricEvictions.Add(ev - s.evictSeen)
		s.evictSeen = ev
	}
}

// datasetFor resolves the dataset a query's region runs against: the
// shared startup dataset for the base region, a lazily generated (and
// then memoized) sibling geography otherwise. Generation happens under
// the region mutex, so concurrent first queries for one region pay for
// a single generation.
func (s *Server) datasetFor(ctx context.Context, regionKey string) (*leodivide.Dataset, error) {
	if regionKey == "" || regionKey == s.baseRegion {
		return s.ds, nil
	}
	s.regionMu.Lock()
	defer s.regionMu.Unlock()
	if ds, ok := s.regionDS[regionKey]; ok {
		return ds, nil
	}
	sc := s.base
	sc.Region = regionKey
	ds, err := sc.Generate(ctx)
	if err != nil {
		return nil, fmt.Errorf("generate region %q dataset: %w", regionKey, err)
	}
	s.regionDS[regionKey] = ds
	return ds, nil
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []experimentInfo
	for _, e := range s.base.BuildModel().Experiments() {
		out = append(out, experimentInfo{Name: e.Name, Description: e.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	json.NewEncoder(w).Encode(out)
}

// constellationInfo is one row of GET /v1/constellations: the declared
// spec a scenario's "constellation" selector names, with its default
// cost inputs under the same field names the scenario overrides use.
type constellationInfo struct {
	Name             string  `json:"name"`
	DisplayName      string  `json:"display_name"`
	Shells           int     `json:"shells"`
	Satellites       int     `json:"satellites"`
	UTDownlinkMHz    float64 `json:"ut_downlink_mhz"`
	MaxBeamsPerCell  int     `json:"max_beams_per_cell"`
	CellCapacityGbps float64 `json:"cell_capacity_gbps"`
	CostSatelliteUSD float64 `json:"cost_sat_usd"`
	CostLifeYears    float64 `json:"cost_life_years"`
	CostTerminalUSD  float64 `json:"cost_terminal_usd"`
}

func (s *Server) handleConstellations(w http.ResponseWriter, r *http.Request) {
	var out []constellationInfo
	for _, sys := range constellation.Systems() {
		out = append(out, constellationInfo{
			Name:             sys.Key,
			DisplayName:      sys.Name,
			Shells:           len(sys.Shells),
			Satellites:       sys.TotalSatellites(),
			UTDownlinkMHz:    spectrum.UTDownlinkMHzOf(sys.Bands),
			MaxBeamsPerCell:  sys.MaxBeamsPerCell,
			CellCapacityGbps: sys.CellCapacityGbps,
			CostSatelliteUSD: sys.Cost.AllInSatelliteUSD(),
			CostLifeYears:    sys.Cost.DesignLifeYears,
			CostTerminalUSD:  sys.Cost.TerminalSubsidyUSD,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	json.NewEncoder(w).Encode(out)
}

// regionInfo is one row of GET /v1/regions: one declared demand/income
// geography a scenario's "region" selector names.
type regionInfo struct {
	Name        string `json:"name"`
	DisplayName string `json:"display_name"`
	Description string `json:"description"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	var out []regionInfo
	for _, reg := range region.Regions() {
		out = append(out, regionInfo{
			Name:        reg.Key(),
			DisplayName: reg.Name(),
			Description: reg.Description(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	json.NewEncoder(w).Encode(out)
}

// Stats is the JSON body of GET /v1/stats: server-local traffic and
// cache shape since startup.
type Stats struct {
	Requests     int64 `json:"requests"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Errors       int64 `json:"errors"`
	CacheEntries int   `json:"cache_entries"`
	// CacheBytes is the cached key+value footprint; CacheMaxBytes is
	// its bound (0 = unbounded by size).
	CacheBytes    int64 `json:"cache_bytes"`
	CacheMaxBytes int64 `json:"cache_max_bytes"`
	Evictions     int64 `json:"evictions"`
	InflightCap   int   `json:"inflight_cap"`
	Inflight      int   `json:"inflight"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.memo.Size()
	_, _, _, evictions := s.memo.Counters()
	st := Stats{
		Requests:      s.requests.Load(),
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Coalesced:     s.coalesced.Load(),
		Errors:        s.errs.Load(),
		CacheEntries:  entries,
		CacheBytes:    bytes,
		CacheMaxBytes: s.maxBytes,
		Evictions:     evictions,
		InflightCap:   s.gate.Cap(),
		Inflight:      s.gate.InUse(),
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//lint:ignore errdrop HTTP response write; a disconnected client is not actionable
	obs.Default.Snapshot().WriteText(w)
}
