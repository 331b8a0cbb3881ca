package perfbench

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"leodivide"
	"leodivide/internal/obs"
	"leodivide/internal/sim"
	"leodivide/internal/usgeo"
)

// simConfigs are the two configurations simcheck alternates, as
// `leodivide simcheck` runs them: free routing and bent-pipe through
// the 36 US gateway sites.
func simConfigs() [2]sim.Config {
	free := sim.DefaultConfig()
	bent := free
	bent.RequireGatewayVisibility = true
	for _, gw := range usgeo.GatewaySites() {
		bent.Gateways = append(bent.Gateways, gw.Pos)
	}
	return [2]sim.Config{free, bent}
}

// simCheck times repeated simulator runs over the national map, in
// free/bent-pipe pairs, until the run's time is spent. Traced runs
// alternate an untraced and a traced pair.
func simCheck(ctx context.Context, r *run) error {
	setup, err := probeSetup(ctx, "setup-simcheck", r.seed)
	if err != nil {
		return err
	}
	r.endToEnd("setup_s", "s", setup)

	obs.Default.Reset()
	var (
		ds      *leodivide.Dataset
		genErr  error
		genSpan *obs.Span
	)
	spans := trace(r.traced, func() {
		gctx, span := obs.StartSpan(ctx, "bench.generate")
		ds, genErr = generate(gctx, r.seed)
		span.End()
		genSpan = span
	})
	if genErr != nil {
		return genErr
	}
	if r.traced {
		r.layersFrom(generateLayers(NewTrace(spans), genSpan, ds, obs.Default.Snapshot()))
	}

	cfgs := simConfigs()
	names := [2]string{"free", "bent"}
	var ref [2]string
	var untraced, traced [2]time.Duration // summed run time per config
	var untracedRuns, tracedRuns [2]int
	var runMs [2][]float64 // each untraced run's time per config
	var snapshot, visibility, allocate time.Duration
	obs.Default.Reset()
	rss := startRSS()
	start := time.Now()
	var lastPair time.Duration
	minPairs := 1
	if r.traced {
		minPairs = 2 // one untraced and one traced pair
	}
	for pair := 0; pair < minPairs || time.Since(start)+lastPair/2 <= r.seconds; pair++ {
		tracedPair := r.traced && pair%2 == 1
		pairStart := time.Now()
		for k, cfg := range cfgs {
			var res sim.Result
			var runErr error
			var runSpan *obs.Span
			t0 := time.Now()
			spans := trace(tracedPair, func() {
				sctx, span := obs.StartSpan(ctx, "bench.sim_run", obs.String("config", names[k]))
				res, runErr = sim.Run(sctx, cfg, ds.Cells)
				span.End()
				runSpan = span
			})
			d := time.Since(t0)
			if runErr != nil {
				return runErr
			}
			failure := CheckSim(res, cfg.Epochs)
			if h, err := ResultHash(res); err != nil {
				failure = err
			} else if ref[k] == "" {
				ref[k] = h
			} else if h != ref[k] {
				failure = fmt.Errorf("%s run %d differs from the first %s run", names[k], pair, names[k])
			}
			r.op(failure)
			if !tracedPair {
				untraced[k] += d
				untracedRuns[k]++
				runMs[k] = append(runMs[k], Ms(d))
				continue
			}
			traced[k] += d
			tracedRuns[k]++
			tr := NewTrace(spans)
			for _, sw := range tr.Children(runSpan) {
				if sw.Name != "par.sweep" {
					continue
				}
				if Attr(sw, "tasks") == strconv.Itoa(len(ds.Cells)) {
					visibility += sw.Duration
				} else {
					snapshot += sw.Duration
				}
			}
			allocate += tr.Self(runSpan)
		}
		lastPair = time.Since(pairStart)
	}
	if err := rss.report(r); err != nil {
		return err
	}
	epochs := cfgs[0].Epochs
	fmt.Fprintf(os.Stderr, "perfbench: simcheck: %d untraced and %d traced pairs\n", untracedRuns[0], tracedRuns[0])
	total := untraced[0] + untraced[1]
	// An operation is one free/bent-pipe pair, as `leodivide simcheck`
	// runs it; its latency is the sum of the two configurations' median
	// run times. Throughput counts simulated epochs.
	r.endToEnd("latency_p50_ms", "ms", Median(runMs[0])+Median(runMs[1]))
	r.endToEnd("throughput_per_s", "1/s", float64(epochs*(untracedRuns[0]+untracedRuns[1]))/total.Seconds())
	if !r.traced {
		return nil
	}
	n := tracedRuns[0] + tracedRuns[1]
	perRun := func(d time.Duration) float64 { return Ms(d) / float64(n) }
	r.layer("sim.run_free.busy_ms", "ms", Ms(traced[0])/float64(tracedRuns[0]))
	r.layer("sim.run_bent.busy_ms", "ms", Ms(traced[1])/float64(tracedRuns[1]))
	r.layer("sim.snapshot.self_ms", "ms", perRun(snapshot))
	r.layer("sim.visibility.self_ms", "ms", perRun(visibility))
	r.layer("sim.allocate.self_ms", "ms", perRun(allocate))
	r.layer("sim.cell_epochs", "count", float64(len(ds.Cells)*epochs*(n+untracedRuns[0]+untracedRuns[1])))
	r.layersFrom(parLayers(obs.Default.Snapshot()))
	tracedTotal := traced[0] + traced[1]
	untracedMean := total.Seconds() / float64(untracedRuns[0]+untracedRuns[1])
	r.layer("trace.overhead_pct", "%", 100*(tracedTotal.Seconds()/float64(n)/untracedMean-1))
	return nil
}
