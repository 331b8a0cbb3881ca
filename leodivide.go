// Package leodivide reproduces the analysis of "Anyone, Anywhere, not
// Everyone, Everywhere: Starlink Doesn't End the Digital Divide"
// (HotNets 2025): an analytical model coupling the peak demand density
// of un(der)served US broadband locations with the physical and
// regulatory limits of LEO access networks, plus the companion
// affordability analysis.
//
// The package is the public facade over the internal substrates
// (geodesy, geospatial grid, orbits, spectrum, beams, demand, synthetic
// datasets, affordability). A typical session:
//
//	ctx := context.Background()
//	ds, err := leodivide.GenerateDataset(ctx)     // synthetic national map
//	m := leodivide.NewModel()
//	t1, err := m.Table1(ctx, ds)                  // single-satellite capacity
//	t2, err := m.Table2(ctx, ds)                  // constellation sizing
//	f4, err := m.Fig4(ctx, ds)                    // affordability
//
// Every experiment runner shares the (ctx, *Dataset) (Result, error)
// shape, is enumerable through Model.Experiments, and fans out over
// Model.Parallelism workers with output identical to the serial path.
// Each runner corresponds to a table or figure of the paper; see
// EXPERIMENTS.md for the paper-vs-measured record.
package leodivide

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"leodivide/internal/afford"
	"leodivide/internal/census"
	"leodivide/internal/constellation"
	"leodivide/internal/core"
	"leodivide/internal/demand"
	"leodivide/internal/hexgrid"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/region"
	"leodivide/internal/spectrum"
	"leodivide/internal/stats"
)

// Facade-level observability (see internal/obs): dataset generation
// counts and stage durations. Experiment-level instruments are attached
// per registry entry in experiments.go.
var (
	metricDatasets = obs.Default.Counter("gen.datasets")
	metricGenSecs  = obs.Default.Histogram("gen.dataset.seconds", obs.DurationBuckets)
	gaugeCells     = obs.Default.Gauge("gen.cells")
)

// Dataset is a synthetic national broadband dataset: per-cell
// un(der)served location counts plus county median incomes, calibrated
// to the paper's published statistics.
type Dataset struct {
	// Cells are the demand cells (service-grid cells with at least one
	// un(der)served location).
	Cells []demand.Cell
	// Incomes is the county income table, weighted by location counts.
	Incomes *census.Table
	// Resolution is the service-cell grid resolution.
	Resolution hexgrid.Resolution
	// Seed reproduces the dataset (together with Region and Scale).
	Seed int64
	// Region is the canonical key of the geography that generated the
	// dataset ("us" for the calibrated national map).
	Region string
	// Scale is the fraction of the region's declared total the dataset
	// was generated at, in (0, 1].
	Scale float64

	dist *demand.Distribution
}

// Option adjusts dataset generation.
type Option func(*genOptions)

type genOptions struct {
	seed        int64
	scale       float64
	region      string
	parallelism int
}

// WithSeed sets the generation seed (default 1).
func WithSeed(seed int64) Option {
	return func(o *genOptions) { o.seed = seed }
}

// WithScale shrinks the dataset to the given fraction of the national
// total (default 1.0). Peak cells scale too, so distribution shape is
// preserved; headline counts scale proportionally.
func WithScale(scale float64) Option {
	return func(o *genOptions) { o.scale = scale }
}

// WithRegion selects the demand/income geography by canonical key
// (default region.DefaultKey, the calibrated US pipeline). See
// internal/region for the shipped set.
func WithRegion(key string) Option {
	return func(o *genOptions) { o.region = key }
}

// WithParallelism bounds the worker count for generation (default one
// worker per CPU; 1 reproduces the serial path). The dataset is
// identical at every setting — parallelism only changes wall-clock time.
func WithParallelism(n int) Option {
	return func(o *genOptions) { o.parallelism = n }
}

// GenerateDataset synthesizes a dataset for the selected region
// (default the calibrated US national map). The context cancels
// generation early; the (seed, region, scale) triple fully determines
// the result regardless of WithParallelism.
func GenerateDataset(ctx context.Context, opts ...Option) (*Dataset, error) {
	//lint:ignore detrand wall-clock feeds the generate_dataset duration metric only, never the dataset
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "generate_dataset")
	defer span.End()
	o := genOptions{seed: 1, scale: 1, region: region.DefaultKey}
	for _, opt := range opts {
		opt(&o)
	}
	if o.scale <= 0 || o.scale > 1 {
		return nil, fmt.Errorf("leodivide: scale must be in (0,1], got %v", o.scale)
	}
	r, ok := region.ByName(o.region)
	if !ok {
		return nil, fmt.Errorf("leodivide: unknown region %q (valid: %s)",
			o.region, strings.Join(region.Names(), ", "))
	}
	out, err := r.Generate(ctx, region.GenConfig{
		Seed:        o.seed,
		Scale:       o.scale,
		Parallelism: o.parallelism,
	})
	if err != nil {
		return nil, err
	}
	metricDatasets.Inc()
	metricGenSecs.ObserveSince(start)
	gaugeCells.Set(float64(len(out.Cells)))
	if span != nil {
		span.SetAttr(obs.Int("cells", int64(len(out.Cells))),
			obs.Int("seed", o.seed))
	}
	return &Dataset{
		Cells:      out.Cells,
		Incomes:    out.Incomes,
		Resolution: out.Resolution,
		Seed:       o.seed,
		Region:     o.region,
		Scale:      o.scale,
		dist:       out.Dist,
	}, nil
}

// Distribution returns the per-cell demand distribution.
func (d *Dataset) Distribution() *demand.Distribution { return d.dist }

// TotalLocations returns the national un(der)served location count.
func (d *Dataset) TotalLocations() int { return d.dist.TotalLocations() }

// NumCells returns the number of demand cells.
func (d *Dataset) NumCells() int { return d.dist.NumCells() }

// Model is the public capacity-and-affordability model.
type Model struct {
	// System is the constellation spec the model analyzes (default
	// Starlink Gen1). Capacity is derived from it at construction;
	// the cross-constellation experiments (costcurve, xconst) also use
	// it to identify the active system whose scenario cost overrides
	// apply. Obtain coherent pairs from NewModelFor rather than
	// writing the field directly.
	System constellation.System
	// Capacity is the underlying capacity model; adjust fields for
	// ablations.
	Capacity core.Model
	// AffordShare is the affordability threshold as a share of monthly
	// income (default 2%).
	AffordShare float64
	// MaxOversub is the acceptable oversubscription cap (default the
	// FCC fixed-wireless 20:1).
	MaxOversub float64
	// Fig3Spreads overrides the beamspread factors Fig3 evaluates when
	// run through the registry (nil = PaperTable2Spreads). Promoted to
	// a ScenarioConfig knob so the serving layer can sweep it.
	Fig3Spreads []float64
	// PlanFilter restricts Fig4's plan comparison to the named plan
	// labels (nil = the paper's full comparison). Unknown labels are a
	// run-time error naming the valid set.
	PlanFilter []string
}

// Parallelism returns a copy of the model whose experiment runners fan
// out over at most n workers (0 = one per CPU, 1 = the exact serial
// path). Every runner's output is identical at every setting; the knob
// only changes wall-clock time.
//
// The bound lives in one field, Capacity.Parallelism, which the
// capacity sweeps and the facade's fan-outs (Fig3 curves, Fig4 plan
// curves, Stability seeds) all read. The same knob reaches dataset
// generation through WithParallelism (or RunConfig, which sets both).
func (m Model) Parallelism(n int) Model {
	m.Capacity.Parallelism = n
	return m
}

// NewModel returns the model with the paper's parameters: the Starlink
// spec viewed through NewModelFor.
func NewModel() Model {
	return NewModelFor(constellation.StarlinkSystem())
}

// NewModelFor returns the model for a constellation spec: the system's
// capacity model plus the paper's affordability share and
// oversubscription cap (the FCC benchmarks apply to every system).
func NewModelFor(sys constellation.System) Model {
	return Model{
		System:      sys,
		Capacity:    core.NewModelFor(sys),
		AffordShare: afford.DefaultAffordabilityShare,
		MaxOversub:  spectrum.FCCFixedWirelessOversubscription,
	}
}

// Calibrated returns a copy whose constellation sizing is pinned to the
// paper's fitted effective cell count (for like-for-like Table 2
// comparisons).
func (m Model) Calibrated() Model {
	m.Capacity = m.Capacity.Calibrated()
	return m
}

// Fig1Result is the per-cell density distribution of Figure 1.
type Fig1Result struct {
	Summary    stats.Summary
	MaxCell    int
	P90, P99   int
	TotalCells int
	TotalLocs  int
	// CDF is the cumulative distribution sampled for plotting.
	CDF []stats.Point
	// Gini quantifies the demand concentration driving the paper's P2:
	// how unevenly locations spread over cells.
	Gini float64
	// Lorenz is the matching Lorenz curve.
	Lorenz []stats.Point
}

// Fig1 computes the Figure 1 distribution.
func (m Model) Fig1(ctx context.Context, d *Dataset) (Fig1Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig1Result{}, err
	}
	dist := d.Distribution()
	sum, err := dist.Summary()
	if err != nil {
		return Fig1Result{}, err
	}
	samples := make([]float64, 0, dist.NumCells())
	for _, c := range dist.Cells() {
		samples = append(samples, float64(c.Locations))
	}
	gini, err := stats.Gini(samples)
	if err != nil {
		return Fig1Result{}, err
	}
	lorenz, err := stats.Lorenz(samples, 100)
	if err != nil {
		return Fig1Result{}, err
	}
	return Fig1Result{
		Summary:    sum,
		MaxCell:    dist.Peak().Locations,
		P90:        dist.Quantile(0.90),
		P99:        dist.Quantile(0.99),
		TotalCells: dist.NumCells(),
		TotalLocs:  dist.TotalLocations(),
		CDF:        dist.CDF().Series(200),
		Gini:       gini,
		Lorenz:     lorenz,
	}, nil
}

// Table1 computes the single-satellite capacity model of Table 1.
func (m Model) Table1(ctx context.Context, d *Dataset) (core.CapacityTable, error) {
	if err := ctx.Err(); err != nil {
		return core.CapacityTable{}, err
	}
	return m.Capacity.Capacity(d.Distribution()), nil
}

// Finding1 computes the oversubscription analysis behind Finding 1.
func (m Model) Finding1(ctx context.Context, d *Dataset) (core.OversubAnalysis, error) {
	if err := ctx.Err(); err != nil {
		return core.OversubAnalysis{}, err
	}
	return m.Capacity.Oversubscription(d.Distribution(), m.MaxOversub), nil
}

// PaperSizes maps a beamspread factor to a paper-reported constellation
// size. JSON objects cannot carry float keys, so it marshals with
// canonically formatted string keys ("2", "15") to stay serializable
// for the golden corpus and the observability layer.
type PaperSizes map[float64]int

// MarshalJSON implements json.Marshaler with string-formatted keys.
func (p PaperSizes) MarshalJSON() ([]byte, error) {
	m := make(map[string]int, len(p))
	for k, v := range p {
		m[strconv.FormatFloat(k, 'g', -1, 64)] = v
	}
	return json.Marshal(m)
}

// Table2Result is the Table 2 reproduction plus the paper's reference
// values for comparison.
type Table2Result struct {
	Rows []core.SizeRow
	// PaperFullService and PaperCapped are the constellation sizes the
	// paper reports for the same beamspread factors (for EXPERIMENTS.md
	// style comparison).
	PaperFullService PaperSizes
	PaperCapped      PaperSizes
}

// PaperTable2Spreads are the beamspread factors of the paper's Table 2.
var PaperTable2Spreads = []float64{1, 2, 5, 10, 15}

// The paper's reported Table 2 constellation sizes, built once: the
// maps are shared across Table2 results (hot path under bench and
// serve) and must be treated as read-only.
var (
	paperFullServiceSizes = PaperSizes{
		1: 79287, 2: 40611, 5: 16486, 10: 8284, 15: 5532,
	}
	paperCappedSizes = PaperSizes{
		1: 80567, 2: 41261, 5: 16750, 10: 8417, 15: 5621,
	}
)

// Table2 computes constellation sizes for the paper's beamspread
// factors under both deployment scenarios.
func (m Model) Table2(ctx context.Context, d *Dataset) (Table2Result, error) {
	rows, err := m.Capacity.SizeTable(ctx, d.Distribution(), PaperTable2Spreads, m.MaxOversub)
	if err != nil {
		return Table2Result{}, err
	}
	return Table2Result{
		Rows:             rows,
		PaperFullService: paperFullServiceSizes,
		PaperCapped:      paperCappedSizes,
	}, nil
}

// Fig2Result is the served-fraction surface of Figure 2.
type Fig2Result struct {
	Spreads, Oversubs []float64
	// Fraction[i][j] is the fraction of demand cells servable at
	// Spreads[i], Oversubs[j] with a single spread beam per cell.
	Fraction [][]float64
}

// Fig2 computes the Figure 2 surface over the paper's axes
// (beamspread 2..14, oversubscription 5..30).
func (m Model) Fig2(ctx context.Context, d *Dataset) (Fig2Result, error) {
	spreads := []float64{2, 4, 6, 8, 10, 12, 14}
	oversubs := []float64{5, 10, 15, 20, 25, 30}
	fraction, err := m.Capacity.ServedFractionGrid(ctx, d.Distribution(), spreads, oversubs, false)
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{
		Spreads:  spreads,
		Oversubs: oversubs,
		Fraction: fraction,
	}, nil
}

// Fig3Result is one diminishing-returns curve of Figure 3.
type Fig3Result struct {
	Spread  float64
	Oversub float64
	Points  []core.ReturnsPoint
	Steps   []core.StepCost
	// FloorUnserved is the unserved count that no constellation size
	// can reduce at this oversubscription (the paper's "last ~5k
	// locations").
	FloorUnserved int
}

// resolveFig3Spreads normalizes Fig3's two override paths — the
// variadic argument and the Model.Fig3Spreads field (the ScenarioConfig
// knob) — into one spread list. Either override alone wins; both empty
// selects the paper's Table 2 spreads; both set is accepted only when
// they agree, and errors otherwise instead of silently preferring one.
func (m Model) resolveFig3Spreads(spreads []float64) ([]float64, error) {
	switch {
	case len(spreads) == 0 && len(m.Fig3Spreads) == 0:
		return PaperTable2Spreads, nil
	case len(spreads) == 0:
		return m.Fig3Spreads, nil
	case len(m.Fig3Spreads) == 0 || sameFloats(spreads, m.Fig3Spreads):
		return spreads, nil
	default:
		return nil, fmt.Errorf("leodivide: conflicting Fig3 spread overrides: argument %v vs Model.Fig3Spreads %v", spreads, m.Fig3Spreads)
	}
}

// Fig3 computes the diminishing-returns curves for the paper's
// beamspread factors at the model's oversubscription cap, one worker
// per spread. Overrides resolve through resolveFig3Spreads.
func (m Model) Fig3(ctx context.Context, d *Dataset, spreads ...float64) ([]Fig3Result, error) {
	resolved, err := m.resolveFig3Spreads(spreads)
	if err != nil {
		return nil, err
	}
	return m.fig3At(ctx, d, resolved)
}

// fig3At runs the Fig3 sweep at exactly the given spreads, bypassing
// override resolution: internal fixed-spread consumers (findings,
// economics) must not conflict with a scenario's Fig3Spreads knob.
func (m Model) fig3At(ctx context.Context, d *Dataset, spreads []float64) ([]Fig3Result, error) {
	dist := d.Distribution()
	floor := dist.ExcessAbove(m.Capacity.Beams.MaxServableLocations(m.MaxOversub))
	return par.Map(ctx, m.Capacity.Parallelism, len(spreads), func(i int) (Fig3Result, error) {
		s := spreads[i]
		pts, err := m.Capacity.DiminishingReturns(ctx, dist, s, m.MaxOversub)
		if err != nil {
			return Fig3Result{}, err
		}
		return Fig3Result{
			Spread:        s,
			Oversub:       m.MaxOversub,
			Points:        pts,
			Steps:         core.StepCosts(pts),
			FloorUnserved: floor,
		}, nil
	})
}

// Fig4Result is the affordability analysis of Figure 4 / Finding 4.
type Fig4Result struct {
	Results []afford.Result
	// Curves are the Figure 4 series per plan option.
	Curves map[string][]afford.CurvePoint
	// ZeroShares record where each plan's curve reaches zero.
	ZeroShares map[string]float64
	// TotalLocations is the dataset total.
	TotalLocations float64
}

// Fig4 computes the affordability comparison across the paper's plans.
// The per-plan curves are evaluated concurrently; results are ordered
// by effective price exactly as the serial comparison was.
func (m Model) Fig4(ctx context.Context, d *Dataset) (Fig4Result, error) {
	in, err := d.affordInput()
	if err != nil {
		return Fig4Result{}, err
	}
	options, err := m.planOptions()
	if err != nil {
		return Fig4Result{}, err
	}
	curves, err := in.EvaluateCurves(ctx, options, m.AffordShare, 0.055, 110, m.Capacity.Parallelism)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{
		Results:        make([]afford.Result, 0, len(curves)),
		Curves:         make(map[string][]afford.CurvePoint, len(options)),
		ZeroShares:     make(map[string]float64, len(options)),
		TotalLocations: in.TotalLocations(),
	}
	for _, pc := range curves {
		name := planLabel(pc.Option)
		res.Curves[name] = pc.Curve
		res.ZeroShares[name] = pc.ZeroShare
		res.Results = append(res.Results, pc.Result)
	}
	sort.SliceStable(res.Results, func(i, j int) bool {
		return afford.EffectiveMonthlyUSD(res.Results[i].Plan, res.Results[i].Subsidy) <
			afford.EffectiveMonthlyUSD(res.Results[j].Plan, res.Results[j].Subsidy)
	})
	return res, nil
}

func planLabel(opt afford.PlanOption) string {
	if opt.Subsidy != nil {
		return opt.Plan.Name + " w/ " + opt.Subsidy.Name
	}
	return opt.Plan.Name
}

// planOptions resolves the Fig4 comparison set: the paper's full
// four-option comparison, narrowed by PlanFilter when set. Filtering by
// label (not index) keeps the knob stable under catalog reordering; an
// unknown label errors with the valid set so scenario authors get a
// usable message instead of a silently empty figure.
func (m Model) planOptions() ([]afford.PlanOption, error) {
	all := afford.PaperComparison()
	if len(m.PlanFilter) == 0 {
		return all, nil
	}
	byLabel := make(map[string]afford.PlanOption, len(all))
	labels := make([]string, 0, len(all))
	for _, opt := range all {
		byLabel[planLabel(opt)] = opt
		labels = append(labels, planLabel(opt))
	}
	out := make([]afford.PlanOption, 0, len(m.PlanFilter))
	for _, name := range m.PlanFilter {
		opt, ok := byLabel[name]
		if !ok {
			return nil, fmt.Errorf("leodivide: unknown plan %q (valid: %s)",
				name, strings.Join(labels, ", "))
		}
		out = append(out, opt)
	}
	return out, nil
}

// AffordabilityInput exposes the location-weighted income distribution
// for custom policy analyses (see examples/policydesign).
//
//lint:ignore ctxfirst pure in-memory accessor over an already-built dataset; nothing blocks, nothing to cancel
func (m Model) AffordabilityInput(d *Dataset) (*afford.Input, error) {
	return d.affordInput()
}

// affordInput is the staged form of afford.NewInput(d.Incomes): the
// weighted income CDF is a pure function of the dataset, shared across
// Fig4, findings and concurrent serve queries via the stage memo.
// afford.Input is immutable after construction, so sharing is safe.
func (d *Dataset) affordInput() (*afford.Input, error) {
	return staged(d, "afford.input", func() (*afford.Input, error) {
		return afford.NewInput(d.Incomes)
	})
}

// dispersedInput is the staged form of afford.NewDispersedInput, keyed
// by the (uncanonicalized) sigma so distinct dispersion shapes coexist.
func (d *Dataset) dispersedInput(sigmaLog float64) (*afford.DispersedInput, error) {
	key := "afford.dispersed|sigma=" + strconv.FormatFloat(sigmaLog, 'g', -1, 64)
	return staged(d, key, func() (*afford.DispersedInput, error) {
		return afford.NewDispersedInput(d.Incomes, sigmaLog)
	})
}

// staged memoizes a typed dataset stage under key in the dataset's
// stage memo. The stages are pure in-memory computes, so nothing
// cancels them.
func staged[T any](d *Dataset, key string, fill func() (T, error)) (T, error) {
	v, _, err := d.dist.Stages().Get(context.Background(), key, func() (any, error) { return fill() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Findings aggregates the paper's four findings in one structure.
type Findings struct {
	F1 core.OversubAnalysis
	// F2: satellites needed at beamspread <2 to stay within acceptable
	// oversubscription.
	F2SatellitesAtSpread2  int
	F2CurrentConstellation int
	// F3: cost of the final tranche of servable locations.
	F3 []core.StepCost
	// F4: locations unable to afford Starlink Residential.
	F4Unaffordable         float64
	F4UnaffordableFraction float64
}

// CurrentStarlinkSatellites is the approximate deployed constellation
// size the paper cites.
const CurrentStarlinkSatellites = 8000

// RunFindings evaluates all four findings. Cancellation is observed at
// entry and between the Fig4, sizing and Fig3 stages (the registry's
// uniform contract).
func (m Model) RunFindings(ctx context.Context, d *Dataset) (Findings, error) {
	f4, err := m.Fig4(ctx, d)
	if err != nil {
		return Findings{}, err
	}
	var starlink afford.Result
	found := false
	for _, r := range f4.Results {
		if r.Plan.Name == afford.StarlinkResidential().Name && r.Subsidy == nil {
			starlink = r
			found = true
		}
	}
	if !found {
		// A PlanFilter that excludes the unsubsidized Starlink plan
		// leaves F4 undefined; fail loudly rather than report zeros.
		return Findings{}, fmt.Errorf("leodivide: findings needs %q in the plan comparison (PlanFilter excludes it)",
			afford.StarlinkResidential().Name)
	}
	if err := ctx.Err(); err != nil {
		return Findings{}, err
	}
	capped := m.Capacity.Size(d.Distribution(), core.CappedOversub, 2, m.MaxOversub)
	fig3, err := m.fig3At(ctx, d, []float64{10})
	if err != nil {
		return Findings{}, err
	}
	var lastSteps []core.StepCost
	if len(fig3) > 0 {
		steps := fig3[0].Steps
		if len(steps) > 3 {
			steps = steps[len(steps)-3:]
		}
		lastSteps = steps
	}
	f1, err := m.Finding1(ctx, d)
	if err != nil {
		return Findings{}, err
	}
	return Findings{
		F1:                     f1,
		F2SatellitesAtSpread2:  capped.Satellites,
		F2CurrentConstellation: CurrentStarlinkSatellites,
		F3:                     lastSteps,
		F4Unaffordable:         starlink.UnaffordableLocations,
		F4UnaffordableFraction: starlink.UnaffordableFraction,
	}, nil
}
