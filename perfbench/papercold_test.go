package perfbench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"leodivide"
	"leodivide/internal/obs"
)

// sessionReport is what a paper-cold child prints as its last line.
type sessionReport struct {
	// Hashes maps each registry experiment to its result hash.
	Hashes map[string]string `json:"hashes"`
	// Problems lists failed output checks and regime guards.
	Problems []string `json:"problems"`
	// Layers holds the per-layer figures of a traced session.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// generate builds the national map at scale 1 for seed, as every CLI
// command and `leodivide serve` do by default.
func generate(ctx context.Context, seed int64) (*leodivide.Dataset, error) {
	return leodivide.GenerateDataset(ctx, leodivide.WithSeed(seed))
}

// childSession is one cold paper session in a fresh process: generate
// the dataset, run every registry experiment once, check the results.
// It prints "generated" when the dataset is ready and the report last.
func childSession(ctx context.Context, seed int64, traced bool) error {
	var rc *obs.RecordingCollector
	if traced {
		rc = &obs.RecordingCollector{}
		defer obs.SetCollector(rc)()
	}
	rep := sessionReport{Hashes: map[string]string{}}
	sctx, session := obs.StartSpan(ctx, "bench.session")
	gctx, gen := obs.StartSpan(sctx, "bench.generate")
	ds, err := generate(gctx, seed)
	gen.End()
	if err != nil {
		return err
	}
	fmt.Println("generated")

	exps := leodivide.NewModel().Experiments()
	results := make([]any, len(exps))
	runs := make([]*obs.Span, len(exps))
	for i, e := range exps {
		ectx, span := obs.StartSpan(sctx, "bench.run", obs.String("experiment", e.Name))
		v, err := e.Run(ectx, ds)
		span.End()
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", e.Name, err))
			continue
		}
		results[i], runs[i] = v, span
	}
	_, check := obs.StartSpan(sctx, "bench.check")
	for i, e := range exps {
		if results[i] == nil {
			continue
		}
		h, err := ResultHash(results[i])
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("hash %s: %v", e.Name, err))
			continue
		}
		rep.Hashes[e.Name] = h
		if e.Name == "fig1" {
			if err := CheckFig1(results[i]); err != nil {
				rep.Problems = append(rep.Problems, err.Error())
			}
		}
	}
	check.End()
	session.End()

	// Regime guards: generation must have been cold (no grid-cache hit)
	// and the experiments must have computed their stages.
	snap := obs.Default.Snapshot()
	if hits := snap.Counters["bdc.us_cells.cache_hits"]; hits != 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("regime guard: bdc.us_cells.cache_hits = %d, want 0", hits))
	}
	stHits, stMisses, stCoalesced, stEvictions := ds.Distribution().Stages().Counters()
	if stMisses == 0 {
		rep.Problems = append(rep.Problems, "regime guard: stage.misses = 0, want > 0")
	}

	if traced {
		tr := NewTrace(rc.Spans())
		l := generateLayers(tr, gen, ds, snap)
		for k, v := range parLayers(snap) {
			l[k] = v
		}
		l["stage.hits"] = float64(stHits)
		l["stage.misses"] = float64(stMisses)
		l["stage.coalesced"] = float64(stCoalesced)
		l["stage.evictions"] = float64(stEvictions)
		l["stage.hit_ratio"] = ratio(stHits, stHits+stMisses+stCoalesced)
		l["session.top_level_coverage"] = tr.Covered(session)
		l["experiment.result_bytes"] = 0
		for i, e := range exps {
			if runs[i] == nil {
				continue
			}
			l["experiment."+e.Name+".busy_ms"] = Ms(runs[i].Duration)
			for _, s := range tr.Find(runs[i], "experiment."+e.Name) {
				if n, err := strconv.ParseInt(Attr(s, "result_bytes"), 10, 64); err == nil {
					l["experiment.result_bytes"] += float64(n)
				}
			}
			if e.Name == "xregion" {
				l["region.busy_ms"] = Ms(TotalDuration(tr.Find(runs[i], "generate_dataset")))
			}
		}
		rep.Layers = l
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// paperCold runs cold paper sessions, each in a fresh process, until
// the run's time is spent. Traced runs alternate traced and untraced
// sessions, so the report carries the tracing overhead.
func paperCold(ctx context.Context, r *run) error {
	var setup, session, rss, tracedSession []float64
	var busy time.Duration // wall time of the untraced sessions, spawn to exit
	layers := map[string][]float64{}
	var ref map[string]string
	start := time.Now()
	var last time.Duration
	for i := 0; i < 3 || time.Since(start)+last <= r.seconds; i++ {
		traced := r.traced && i%2 == 1
		t0 := time.Now()
		cr, err := spawnChild(ctx, "session", r.seed, traced)
		if err != nil {
			return err
		}
		cycle := time.Since(t0)
		gen, err := cr.since("generated")
		if err != nil {
			return err
		}
		if len(cr.lines) == 0 {
			return fmt.Errorf("session %d printed nothing", i)
		}
		var rep sessionReport
		if err := json.Unmarshal([]byte(cr.lines[len(cr.lines)-1]), &rep); err != nil {
			return fmt.Errorf("session %d report: %w", i, err)
		}
		last = cr.stamps[len(cr.stamps)-1].Sub(cr.spawned)

		var failure error
		if len(rep.Problems) > 0 {
			failure = fmt.Errorf("session %d: %v", i, rep.Problems)
		}
		if ref == nil {
			ref = rep.Hashes
		}
		if len(rep.Hashes) != len(leodivide.NewModel().Experiments()) {
			failure = fmt.Errorf("session %d produced %d of %d results", i, len(rep.Hashes), len(leodivide.NewModel().Experiments()))
		}
		for name, h := range rep.Hashes {
			if ref[name] != h {
				failure = fmt.Errorf("session %d: %s result differs from session 0 of the same seed", i, name)
			}
		}
		r.op(failure)

		if traced {
			tracedSession = append(tracedSession, Ms(last))
			for k, v := range rep.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		setup = append(setup, gen.Seconds())
		session = append(session, Ms(last))
		busy += cycle
		rss = append(rss, mb(cr.maxRSS))
	}
	fmt.Fprintf(os.Stderr, "perfbench: paper-cold: %d sessions (%d traced)\n", len(setup)+len(tracedSession), len(tracedSession))

	// An operation is one session: its latency runs from the child's
	// spawn until all 14 results are produced and checked.
	r.endToEnd("setup_s", "s", Median(setup))
	r.endToEnd("latency_p50_ms", "ms", Median(session))
	r.endToEnd("throughput_per_s", "1/s", float64(len(session))/busy.Seconds())
	r.endToEnd("peak_rss_mb", "MB", Median(rss))
	if !r.traced {
		return nil
	}
	for _, k := range sortedKeys(layers) {
		r.layer(k, layerUnit(k), Median(layers[k]))
	}
	cov := Median(layers["session.top_level_coverage"])
	r.guard(cov >= 0.9, "top-level spans cover %.3f of the session, want >= 0.9", cov)
	r.layer("trace.overhead_pct", "%", 100*(Median(tracedSession)/Median(session)-1))
	return nil
}
