package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leodivide"
	"leodivide/internal/obs"
	"leodivide/internal/region"
	"leodivide/internal/serve"
)

// Open-loop rates, fixed so that the offered load never moves between
// commits, and well under the closed-loop throughput the parent commit
// reached on a 2-CPU container at its slowest: that throughput halved
// and doubled again with the host's load, and an open loop near
// capacity measures a growing queue. See README.md.
const (
	hotRate   = 3000.0 // requests per second
	sweepRate = 200.0
)

// openShare is the share of a serve run spent in the open-loop phase;
// the closed-loop phase takes the rest.
const openShare = 0.5

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv    *serve.Server
	base   leodivide.ScenarioConfig
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startServer builds the default server for seed, serves it on a
// loopback port, waits for /healthz and sends one warm-up request per
// region, so that every region's dataset is generated when it returns.
func startServer(ctx context.Context, seed int64) (*server, error) {
	base := leodivide.DefaultScenarioConfig("")
	base.Seed = seed
	srv, err := serve.New(ctx, serve.Config{Scenario: base})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	st := &server{
		srv:  srv,
		base: base,
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     gomaxprocs,
			MaxIdleConnsPerHost: gomaxprocs,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { st.done <- srv.Run(runCtx, ln, 10*time.Second) }()
	if err := st.ready(ctx); err != nil {
		return nil, errors.Join(err, st.stop())
	}
	return st, nil
}

func (st *server) ready(ctx context.Context) error {
	resp, err := st.client.Get(st.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	for _, key := range region.Names() {
		body, err := json.Marshal(leodivide.ScenarioRequest{Schema: leodivide.ScenarioSchema, Experiment: "table1", Region: key})
		if err != nil {
			return err
		}
		if s := st.post(ctx, body, &buf, false); s.err != nil {
			return fmt.Errorf("warm-up of region %s: %w", key, s.err)
		}
	}
	return nil
}

// stop shuts the server down and waits for it to exit.
func (st *server) stop() error {
	st.cancel()
	err := <-st.done
	st.client.CloseIdleConnections()
	return err
}

// stats reads GET /v1/stats.
func (st *server) stats() (serve.Stats, error) {
	var s serve.Stats
	resp, err := st.client.Get(st.url + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// datasets returns the datasets a direct registry run needs to
// reproduce any response: the server's own and a fresh one per sibling
// region at the same (seed, scale).
func (st *server) datasets(ctx context.Context) (map[string]*leodivide.Dataset, error) {
	out := map[string]*leodivide.Dataset{region.DefaultKey: st.srv.Dataset()}
	for _, key := range region.Names() {
		if key == region.DefaultKey {
			continue
		}
		ds, err := leodivide.GenerateDataset(ctx, leodivide.WithSeed(st.base.Seed), leodivide.WithRegion(key))
		if err != nil {
			return nil, err
		}
		out[key] = ds
	}
	return out, nil
}

// sample is one request of a load phase. Times are offsets from the
// phase start; due is zero in a closed loop.
type sample struct {
	due, sent, done time.Duration
	cache           string
	bytes           int
	err             error
}

// post sends one scenario query and reads the whole response into buf.
// A traced request runs in a bench.request span.
func (st *server) post(ctx context.Context, body []byte, buf *bytes.Buffer, traced bool) sample {
	var span *obs.Span
	if traced {
		_, span = obs.StartSpan(ctx, "bench.request")
	}
	defer span.End()
	buf.Reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/v1/scenario", bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return sample{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return sample{err: fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))}
	}
	return sample{cache: resp.Header.Get(serve.CacheHeader), bytes: buf.Len()}
}

// load describes what a phase sends: the body of request i, and a check
// of its response (called concurrently from the client connections).
type load struct {
	n      int // requests available
	body   func(i int) []byte
	check  func(i int, cache string, body []byte) error
	traced bool
}

// phase is a finished load phase.
type phase struct {
	samples []sample
	// Open loop only: phase start to last completion, and the most
	// requests ever due but not yet sent.
	elapsed    time.Duration
	maxBacklog int
}

// openLoop offers rate requests per second for dur, from request first
// on, over at most gomaxprocs connections. Request i is due at
// first-relative offset i/rate; a request waiting for a free connection
// is late, and its latency counts from its due time.
func (st *server) openLoop(ctx context.Context, ld load, first int, rate float64, dur time.Duration) (phase, error) {
	n := int(rate * dur.Seconds())
	if first+n > ld.n {
		return phase{}, fmt.Errorf("open loop needs %d requests, %d available", first+n, ld.n)
	}
	samples := make([]sample, n)
	var next, backlog atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < gomaxprocs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				dueNow := int(sent.Seconds()*rate) + 1
				if dueNow > n {
					dueNow = n
				}
				for b := int64(dueNow - i - 1); ; {
					cur := backlog.Load()
					if b <= cur || backlog.CompareAndSwap(cur, b) {
						break
					}
				}
				s := st.post(ctx, ld.body(first+i), &buf, ld.traced)
				s.due, s.sent, s.done = due, sent, time.Since(start)
				if s.err == nil {
					s.err = ld.check(first+i, s.cache, buf.Bytes())
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return phase{samples: samples, elapsed: lastDone(samples), maxBacklog: int(backlog.Load())}, nil
}

// closedLoop runs gomaxprocs clients, each sending its next request as
// soon as the previous one completes, for dur, from request first on.
func (st *server) closedLoop(ctx context.Context, ld load, first int, dur time.Duration) (phase, error) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var all []sample
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < gomaxprocs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []sample
			for time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= ld.n {
					exhausted.Store(true)
					break
				}
				sent := time.Since(start)
				s := st.post(ctx, ld.body(i), &buf, ld.traced)
				s.sent, s.done = sent, time.Since(start)
				if s.err == nil {
					s.err = ld.check(i, s.cache, buf.Bytes())
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if exhausted.Load() {
		return phase{}, fmt.Errorf("closed loop ran out of its %d requests", ld.n)
	}
	return phase{samples: all}, nil
}

// shortWindow is the window for medians that need few samples per
// window: the p50 and the closed-loop rate.
const shortWindow = 500 * time.Millisecond

// throughput is the median over the short windows of a closed-loop
// phase of each window's completion rate: completions after the
// window's first, over the time from its first to its last.
func throughput(p phase, dur time.Duration) float64 {
	at := make([]time.Duration, len(p.samples))
	done := make([]float64, len(p.samples))
	for i, s := range p.samples {
		at[i], done[i] = s.done, s.done.Seconds()
	}
	thr, _ := WindowMedian(Windows(at, done, shortWindow, dur), func(s []float64) (float64, bool) {
		if len(s) < 2 || s[len(s)-1] <= s[0] {
			return 0, false
		}
		return float64(len(s)-1) / (s[len(s)-1] - s[0]), true
	})
	return thr
}

// closedP50 is the median over the short windows of a closed-loop
// phase of each window's median request latency, send to completion.
func closedP50(p phase, dur time.Duration) float64 {
	var at []time.Duration
	var lat []float64
	for _, s := range p.samples {
		if s.err == nil {
			at, lat = append(at, s.done), append(lat, Ms(s.done-s.sent))
		}
	}
	p50, _ := WindowMedian(Windows(at, lat, shortWindow, dur),
		func(s []float64) (float64, bool) { return NearestRank(s, 0.5), len(s) > 0 })
	return p50
}

func lastDone(samples []sample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		if s.done > d {
			d = s.done
		}
	}
	return d
}

// serveRun is the shared shape of serve-hot and serve-sweep: set-up,
// warm-up, an open-loop phase at rate, a closed-loop phase, then the
// output checks. Traced runs split the closed loop into an untraced and
// a traced half to report the tracing overhead.
type serveRun struct {
	rate   float64
	warmup func(ctx context.Context, st *server) (load, int, error) // returns the load and its first timed request
	verify func(ctx context.Context, st *server) error              // runs after the timed phases
	guard  func(r *run, timed []sample, before, after serve.Stats)
}

func (sr serveRun) do(ctx context.Context, r *run) error {
	setup, err := probeSetup(ctx, "setup-serve", r.seed)
	if err != nil {
		return err
	}
	r.endToEnd("setup_s", "s", setup)

	obs.Default.Reset()
	var st *server
	var setupSpan *obs.Span
	spans := trace(r.traced, func() {
		sctx, span := obs.StartSpan(ctx, "bench.setup")
		st, err = startServer(sctx, r.seed)
		span.End()
		setupSpan = span
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := st.stop(); err != nil {
			r.problem("server shutdown: %v", err)
		}
	}()
	if r.traced {
		// serve.New generates the base dataset under the set-up span;
		// the sibling regions generate in the server's handlers, whose
		// spans have no parent.
		tr := NewTrace(spans)
		gens := tr.Find(setupSpan, "generate_dataset")
		if len(gens) != 1 {
			return fmt.Errorf("set-up recorded %d base generations, want 1", len(gens))
		}
		r.layersFrom(generateLayers(tr, gens[0], st.srv.Dataset(), obs.Default.Snapshot()))
		var regions time.Duration
		for _, s := range tr.Roots() {
			if s.Name == "generate_dataset" {
				regions += s.Duration
			}
		}
		r.layer("region.busy_ms", "ms", Ms(regions))
	}

	ld, first, err := sr.warmup(ctx, st)
	if err != nil {
		return err
	}
	before, err := st.stats()
	if err != nil {
		return err
	}
	stages := st.srv.Dataset().Distribution().Stages()
	stHits0, stMisses0, stCoal0, stEvict0 := stages.Counters()
	obs.Default.Reset()
	rss := startRSS()

	// The timed phases run untraced. A traced run then adds a traced
	// closed loop as long as the untraced one; comparing the two gives
	// the tracing overhead, and its spans give the per-layer split.
	openDur := time.Duration(openShare * float64(r.seconds))
	closedDur := r.seconds - openDur
	if r.traced {
		closedDur /= 2
	}
	open, err := st.openLoop(ctx, ld, first, sr.rate, openDur)
	if err != nil {
		return err
	}
	first += len(open.samples)
	closed, err := st.closedLoop(ctx, ld, first, closedDur)
	if err != nil {
		return err
	}
	first += len(closed.samples)
	after, err := st.stats()
	if err != nil {
		return err
	}
	snap := obs.Default.Snapshot()
	stHits, stMisses, stCoal, stEvict := stages.Counters()
	var tracedClosed phase
	if r.traced {
		ld.traced = true
		spans = trace(true, func() {
			tracedClosed, err = st.closedLoop(ctx, ld, first, closedDur)
		})
		if err != nil {
			return err
		}
	}
	if err := rss.report(r); err != nil {
		return err
	}

	timed := append(append([]sample(nil), open.samples...), closed.samples...)
	for _, s := range append(timed, tracedClosed.samples...) {
		r.op(s.err)
	}
	sr.guard(r, timed, before, after)
	// The open loop is valid only if completions kept up with the
	// offered rate; otherwise its latencies measure a growing queue.
	achieved := float64(len(open.samples)) / open.elapsed.Seconds()
	r.guard(achieved >= 0.95*sr.rate, "open loop completed %.1f req/s of %.0f offered (backlog %d)",
		achieved, sr.rate, open.maxBacklog)
	fmt.Fprintf(os.Stderr, "perfbench: %s: open loop %d requests at %.0f/s, closed loop %d (+%d traced) requests\n",
		r.workload, len(open.samples), sr.rate, len(closed.samples), len(tracedClosed.samples))

	// The end-to-end figures come from the closed loop, where the CPUs
	// stay busy. The open loop leaves them mostly idle, and on a shared
	// host its latency tracks how fast an idle CPU wakes, which moved
	// its p50 by half between runs of one build; it is reported per
	// layer instead (see README.md).
	r.endToEnd("latency_p50_ms", "ms", closedP50(closed, closedDur))
	r.endToEnd("throughput_per_s", "1/s", throughput(closed, closedDur))

	// Open-loop latency is read per window and reported as the median
	// over windows: p50 over short windows, p99 over windows long
	// enough to hold 1000 requests, so that each has ten samples beyond.
	var at []time.Duration
	var fromDue []float64
	for _, s := range open.samples {
		if s.err == nil {
			at, fromDue = append(at, s.due), append(fromDue, Ms(s.done-s.due))
		}
	}
	if p50, ok := WindowMedian(Windows(at, fromDue, shortWindow, openDur),
		func(s []float64) (float64, bool) { return NearestRank(s, 0.5), len(s) > 0 }); ok {
		r.layer("serve.open_p50_ms", "ms", p50)
	}
	tailWindow := time.Duration(1000 / sr.rate * float64(time.Second))
	if p99, ok := WindowMedian(Windows(at, fromDue, tailWindow, openDur),
		func(s []float64) (float64, bool) { return TailPercentile(s, 0.99) }); ok {
		r.layer("serve.open_p99_ms", "ms", p99)
	}

	if err := sr.verify(ctx, st); err != nil {
		return err
	}
	if r.traced {
		serveLayers(r, open, closed, tracedClosed, closedDur, before, after, snap, NewTrace(spans))
		dh, dm, dc := stHits-stHits0, stMisses-stMisses0, stCoal-stCoal0
		if dh+dm+dc > 0 {
			r.layer("stage.hits", "count", float64(dh))
			r.layer("stage.misses", "count", float64(dm))
			r.layer("stage.coalesced", "count", float64(dc))
			r.layer("stage.evictions", "count", float64(stEvict-stEvict0))
			r.layer("stage.hit_ratio", "ratio", ratio(dh, dh+dm+dc))
		}
	}
	return nil
}

// serveLayers records the serve, par and load-generator layers of a
// traced serve run: counters and histograms over the untraced timed
// phases (from before to after and snap), and the client/server split
// and per-experiment times from the traced closed loop's spans.
func serveLayers(r *run, open, closed, traced phase, closedDur time.Duration,
	before, after serve.Stats, snap obs.Snapshot, tr *Trace) {
	requests := after.Requests - before.Requests
	r.layer("serve.hit_ratio", "ratio", ratio(after.Hits-before.Hits, requests))
	r.layer("serve.misses", "count", float64(after.Misses-before.Misses))
	r.layer("serve.coalesced", "count", float64(after.Coalesced-before.Coalesced))
	r.layer("serve.evictions", "count", float64(after.Evictions-before.Evictions))
	r.layer("serve.cache_bytes", "B", float64(after.CacheBytes))
	for _, c := range []string{"hit", "miss"} {
		var lat []float64
		for _, s := range open.samples {
			if s.err == nil && s.cache == c {
				lat = append(lat, Ms(s.done-s.sent))
			}
		}
		if len(lat) > 0 {
			r.layer("serve."+c+".p50_ms", "ms", Median(lat))
		}
	}
	req := snap.Histograms["serve.request.seconds"]
	runs := snap.Histograms["serve.run.seconds"]
	wait := snap.Histograms["serve.admission_wait.seconds"]
	r.layer("serve.request.busy_ms", "ms", 1000*req.Sum)
	if runs.Count > 0 {
		r.layer("serve.run.busy_ms", "ms", 1000*runs.Sum)
		r.layer("serve.admission_wait_ms", "ms", 1000*wait.Mean())
	}
	r.layer("serve.overhead_us", "us", 1e6*(req.Sum-runs.Sum-wait.Sum)/float64(req.Count))
	var bytesOut int
	for _, p := range []phase{open, closed} {
		for _, s := range p.samples {
			bytesOut += s.bytes
		}
	}
	r.layer("serve.response_bytes", "B", float64(bytesOut))
	if snap.Counters["par.sweeps"] > 0 {
		r.layersFrom(parLayers(snap))
	}
	var late time.Duration
	for _, s := range open.samples {
		late += s.sent - s.due
	}
	r.layer("loadgen.late_ms", "ms", Ms(late)/float64(len(open.samples)))
	r.layer("loadgen.backlog", "count", float64(open.maxBacklog))

	// Client spans and server spans share no context across HTTP, so
	// the client gap compares their means over the traced closed loop:
	// the client-observed time not spent inside the server's handler.
	var client time.Duration
	var clientN int
	byName := map[string][]*obs.Span{}
	for _, s := range tr.Roots() {
		switch {
		case s.Name == "bench.request":
			client += s.Duration
			clientN++
		case strings.HasPrefix(s.Name, "experiment."):
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	all := obs.Default.Snapshot().Histograms["serve.request.seconds"]
	serverSum, serverN := all.Sum-req.Sum, all.Count-req.Count
	if clientN > 0 && serverN > 0 {
		r.layer("serve.client_gap_us", "us", 1e6*(client.Seconds()/float64(clientN)-serverSum/float64(serverN)))
	}
	for _, name := range sortedKeys(byName) {
		r.layer(name+".busy_ms", "ms", Ms(TotalDuration(byName[name]))/float64(len(byName[name])))
	}
	r.layer("trace.overhead_pct", "%", 100*(throughput(closed, closedDur)/throughput(traced, closedDur)-1))
}

// hotRequests is how many request indices serve-hot draws; the
// sequence wraps, which keeps it a Zipf stream over the same keys.
const hotRequests = 1 << 18

// serveHot: a warm working set, then seeded Zipf repeats of it. Nearly
// every timed request is a cache hit.
func serveHot(ctx context.Context, r *run) error {
	set := HotSet()
	bodies := make([][]byte, len(set))
	for i := range set {
		b, err := json.Marshal(set[i])
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	seq := HotSequence(r.seed, hotRequests, len(set))
	served := make([][]byte, len(set))
	return serveRun{
		rate: hotRate,
		warmup: func(ctx context.Context, st *server) (load, int, error) {
			var buf bytes.Buffer
			for i, b := range bodies {
				s := st.post(ctx, b, &buf, false)
				r.op(s.err)
				served[i] = append([]byte(nil), buf.Bytes()...)
			}
			return load{
				n:    1 << 62,
				body: func(i int) []byte { return bodies[seq[i%hotRequests]] },
				check: func(i int, cache string, body []byte) error {
					if k := seq[i%hotRequests]; !bytes.Equal(body, served[k]) {
						return fmt.Errorf("hot key %d: body differs from its first response", k)
					}
					return nil
				},
			}, 0, nil
		},
		verify: func(ctx context.Context, st *server) error {
			datasets, err := st.datasets(ctx)
			if err != nil {
				return err
			}
			for i, req := range set {
				want, err := ExpectedBody(ctx, st.base, req, datasets)
				if err != nil {
					return err
				}
				if !bytes.Equal(served[i], want) {
					r.op(fmt.Errorf("hot key %d (%s): body differs from a direct registry run", i, req.Experiment))
					continue
				}
				r.op(nil)
			}
			return nil
		},
		guard: func(r *run, timed []sample, before, after serve.Stats) {
			hits := after.Hits - before.Hits
			requests := after.Requests - before.Requests
			r.guard(ratio(hits, requests) >= 0.99, "serve-hot hit ratio %d/%d, want >= 0.99", hits, requests)
		},
	}.do(ctx, r)
}

// sweepWarmup is how many never-seen scenarios serve-sweep sends before
// timing starts: enough to fill the result cache to its byte bound, so
// the timed phases measure the steady state in which every miss is
// written and evicts an older entry.
const sweepWarmup = 2000

// sweepSampleEvery: about one timed serve-sweep response in this many
// is checked byte for byte against a direct registry run.
const sweepSampleEvery = 64

// serveSweep: every request is a scenario the server has never seen, so
// every one misses the result cache and runs the model.
func serveSweep(ctx context.Context, r *run) error {
	var reqs []leodivide.ScenarioRequest
	var bodies, prefixes [][]byte
	var mu sync.Mutex
	sampled := map[int][]byte{}
	return serveRun{
		rate: sweepRate,
		warmup: func(ctx context.Context, st *server) (load, int, error) {
			// Enough scenarios for the open loop and a closed loop at up
			// to ten times the open-loop rate.
			n := sweepWarmup + int(sweepRate*r.seconds.Seconds()*(openShare+10*(1-openShare)))
			sw := NewSweep(r.seed, st.base)
			for len(reqs) < n {
				req, key, err := sw.Next()
				if err != nil {
					return load{}, 0, err
				}
				b, err := json.Marshal(req)
				if err != nil {
					return load{}, 0, err
				}
				p, err := responsePrefix(key)
				if err != nil {
					return load{}, 0, err
				}
				reqs, bodies, prefixes = append(reqs, req), append(bodies, b), append(prefixes, p)
			}
			var buf bytes.Buffer
			for i := 0; i < sweepWarmup; i++ {
				r.op(st.post(ctx, bodies[i], &buf, false).err)
			}
			stats, err := st.stats()
			if err != nil {
				return load{}, 0, err
			}
			r.guard(stats.Evictions > 0, "serve-sweep: the result cache is not full after warm-up (%d of %d bytes)",
				stats.CacheBytes, stats.CacheMaxBytes)
			return load{
				n:    n,
				body: func(i int) []byte { return bodies[i] },
				check: func(i int, cache string, body []byte) error {
					if !bytes.HasPrefix(body, prefixes[i]) {
						return fmt.Errorf("sweep request %d: response does not carry its canonical key", i)
					}
					if Sampled(r.seed, i, sweepSampleEvery) {
						mu.Lock()
						sampled[i] = append([]byte(nil), body...)
						mu.Unlock()
					}
					return nil
				},
			}, sweepWarmup, nil
		},
		verify: func(ctx context.Context, st *server) error {
			datasets, err := st.datasets(ctx)
			if err != nil {
				return err
			}
			for _, i := range sortedInts(sampled) {
				want, err := ExpectedBody(ctx, st.base, reqs[i], datasets)
				if err != nil {
					return err
				}
				if !bytes.Equal(sampled[i], want) {
					r.op(fmt.Errorf("sweep request %d (%s): body differs from a direct registry run", i, reqs[i].Experiment))
					continue
				}
				r.op(nil)
			}
			fmt.Fprintf(os.Stderr, "perfbench: serve-sweep: %d sampled bodies checked\n", len(sampled))
			return nil
		},
		guard: func(r *run, timed []sample, before, after serve.Stats) {
			notMiss := 0
			for _, s := range timed {
				if s.err == nil && s.cache != "miss" {
					notMiss++
				}
			}
			r.guard(notMiss == 0, "serve-sweep: %d timed requests were not misses", notMiss)
			r.guard(after.Misses-before.Misses == int64(len(timed)), "serve-sweep: server counted %d misses for %d timed requests",
				after.Misses-before.Misses, len(timed))
		},
	}.do(ctx, r)
}

func sortedInts[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// responsePrefix is how every response to a scenario with canonical key
// key begins: the Response envelope's schema and key fields.
func responsePrefix(key string) ([]byte, error) {
	k, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	return []byte(`{"schema":"` + leodivide.ScenarioSchema + `","key":` + string(k)), nil
}
