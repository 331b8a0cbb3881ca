package perfbench

import (
	"fmt"
	"sort"
)

// Metric names a reported figure and its unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the end-to-end metrics, in BENCHMARK.json's order.
// Every untraced run of every workload reports each of them, each with
// its workload's meaning of an operation (see README.md): a cold
// session, a free/bent-pipe simulator pair, or a request.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// Layers lists the per-layer metrics, in BENCHMARK.json's order. A
// traced run reports each of them; a layer that does no work in the
// workload reads 0.
var Layers = []Metric{
	{"generate.busy_ms", "ms"},
	{"bdc.us_cells.busy_ms", "ms"},
	{"bdc.sample_sites.busy_ms", "ms"},
	{"gen.assign_incomes.busy_ms", "ms"},
	{"generate.cells", "count"},
	{"generate.locations", "count"},
	{"bdc.us_cells.cache_hits", "count"},
	{"region.busy_ms", "ms"},
	{"experiment.fig1.busy_ms", "ms"},
	{"experiment.table1.busy_ms", "ms"},
	{"experiment.table2.busy_ms", "ms"},
	{"experiment.fig2.busy_ms", "ms"},
	{"experiment.fig3.busy_ms", "ms"},
	{"experiment.fig4.busy_ms", "ms"},
	{"experiment.findings.busy_ms", "ms"},
	{"experiment.fleets.busy_ms", "ms"},
	{"experiment.refined.busy_ms", "ms"},
	{"experiment.busyhour.busy_ms", "ms"},
	{"experiment.econ.busy_ms", "ms"},
	{"experiment.costcurve.busy_ms", "ms"},
	{"experiment.xconst.busy_ms", "ms"},
	{"experiment.xregion.busy_ms", "ms"},
	{"experiment.result_bytes", "B"},
	{"stage.hits", "count"},
	{"stage.misses", "count"},
	{"stage.coalesced", "count"},
	{"stage.evictions", "count"},
	{"stage.hit_ratio", "ratio"},
	{"par.sweeps", "count"},
	{"par.tasks", "count"},
	{"par.queue_wait_ms", "ms"},
	{"par.occupancy_mean", "ratio"},
	{"sim.run_free.busy_ms", "ms"},
	{"sim.run_bent.busy_ms", "ms"},
	{"sim.snapshot.self_ms", "ms"},
	{"sim.visibility.self_ms", "ms"},
	{"sim.allocate.self_ms", "ms"},
	{"sim.cell_epochs", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.misses", "count"},
	{"serve.coalesced", "count"},
	{"serve.miss.p50_ms", "ms"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_p99_ms", "ms"},
	{"serve.request.busy_ms", "ms"},
	{"serve.run.busy_ms", "ms"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.client_gap_us", "us"},
	{"serve.evictions", "count"},
	{"serve.cache_bytes", "B"},
	{"serve.response_bytes", "B"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.overhead_pct", "%"},
	{"session.top_level_coverage", "ratio"},
}

// Complete returns the metrics of want, taking each value from got. A
// metric missing from got reads 0 and its name is returned in missing.
// Names in got that want does not list are returned, sorted, in extra.
// A listed metric reported in another unit is an error.
func Complete(want []Metric, got map[string]Reading) (out map[string]Reading, missing, extra []string, err error) {
	out = make(map[string]Reading, len(want))
	listed := make(map[string]bool, len(want))
	for _, m := range want {
		listed[m.Name] = true
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			v = Reading{Value: 0, Unit: m.Unit}
		} else if v.Unit != m.Unit {
			return nil, nil, nil, fmt.Errorf("metric %s reported in %q, want %q", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return out, missing, extra, nil
}

// Reading is one reported value in its unit.
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
