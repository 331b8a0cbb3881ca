package perfbench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"leodivide"
	"leodivide/internal/constellation"
	"leodivide/internal/region"
	"leodivide/internal/serve"
)

// hotVariants are the knob variants of the serve-hot working set, the
// same ones `leodivide loadgen` cycles: the server default, three model
// knobs, the other constellations and the sibling regions.
var hotVariants = []leodivide.ScenarioRequest{
	{},
	{MaxOversub: 25},
	{MaxOversub: 30},
	{AffordShare: 0.025},
	{Constellation: "kuiper"},
	{Constellation: "oneweb"},
	{Region: "brazil-rural"},
	{Region: "taipei-dense"},
}

// HotSet returns the serve-hot working set: every registry experiment
// under every hot variant, variant-major. Its order is the Zipf rank
// order, fixed so that every seed makes the same keys popular and only
// the request sequence changes with the seed.
func HotSet() []leodivide.ScenarioRequest {
	var out []leodivide.ScenarioRequest
	for _, v := range hotVariants {
		for _, e := range leodivide.NewModel().Experiments() {
			r := v
			r.Schema = leodivide.ScenarioSchema
			r.Experiment = e.Name
			out = append(out, r)
		}
	}
	return out
}

// hotZipfS is the Zipf exponent of the serve-hot request mix.
const hotZipfS = 1.1

// HotSequence draws n indices into a working set of size m from a Zipf
// distribution seeded by seed: rank 0 is the most popular.
func HotSequence(seed int64, n, m int) []int {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, hotZipfS, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// sweepExperiments are the experiments serve-sweep queries. busyhour and
// xregion are left out: a miss of either costs 150-250 ms, which would
// turn the workload into a copy of paper-cold.
var sweepExperiments = []string{
	"table2", "fig2", "fig3", "fig4", "findings", "fleets", "refined", "econ", "costcurve", "xconst",
}

// Sweep generates serve-sweep scenarios: seeded draws of every model
// knob, each one a scenario no earlier draw of the same Sweep produced.
// (experiment, region) pairs come in shuffled blocks that hold each
// pair once, so every stretch of the stream carries the same mix of
// cheap and costly queries and only the order within a block, and the
// knob values, depend on the seed.
type Sweep struct {
	rng   *rand.Rand
	base  leodivide.ScenarioConfig
	seen  map[string]bool
	block []int
}

// NewSweep returns a generator for scenarios against a server whose
// base scenario is base. The seed fixes the sequence.
func NewSweep(seed int64, base leodivide.ScenarioConfig) *Sweep {
	return &Sweep{
		rng:  rand.New(rand.NewSource(seed)),
		base: base,
		seen: map[string]bool{},
	}
}

// uniform draws from [lo, hi) rounded to six decimals, so request
// bodies stay short while draws remain effectively continuous.
func (s *Sweep) uniform(lo, hi float64) float64 {
	return math.Round((lo+s.rng.Float64()*(hi-lo))*1e6) / 1e6
}

// Next returns the next scenario and its canonical key. Draws whose key
// an earlier draw already produced are redrawn.
func (s *Sweep) Next() (leodivide.ScenarioRequest, string, error) {
	for {
		req := s.draw()
		key, err := ToConfig(s.base, req).CanonicalKey()
		if err != nil {
			return leodivide.ScenarioRequest{}, "", fmt.Errorf("perfbench: sweep draw %+v: %w", req, err)
		}
		if !s.seen[key] {
			s.seen[key] = true
			return req, key, nil
		}
	}
}

func (s *Sweep) draw() leodivide.ScenarioRequest {
	regions := region.Names()
	if len(s.block) == 0 {
		s.block = s.rng.Perm(len(sweepExperiments) * len(regions))
	}
	pair := s.block[0]
	s.block = s.block[1:]
	req := leodivide.ScenarioRequest{
		Schema:      leodivide.ScenarioSchema,
		Experiment:  sweepExperiments[pair%len(sweepExperiments)],
		Region:      regions[pair/len(sweepExperiments)],
		MaxOversub:  s.uniform(2, 200),
		AffordShare: s.uniform(0.005, 0.1),
	}
	systems := constellation.SystemNames()
	req.Constellation = systems[s.rng.Intn(len(systems))]
	// As many spreads as the paper's Table 2, so every fig3 body is the
	// same ~1 MB size and only the spread values are drawn.
	spreads := make([]float64, len(leodivide.PaperTable2Spreads))
	lo := 1.0
	for i := range spreads {
		spreads[i] = math.Round(lo + 1 + s.rng.Float64()*20)
		lo = spreads[i]
	}
	req.Spreads = spreads
	if s.rng.Intn(2) == 0 {
		req.CostSatelliteUSD = math.Round(s.uniform(0.3e6, 5e6))
	}
	if s.rng.Intn(2) == 0 {
		req.CostLifeYears = s.uniform(3, 15)
	}
	if s.rng.Intn(2) == 0 {
		req.CostTerminalUSD = math.Round(s.uniform(0, 1000))
	}
	return req
}

// Sampled reports whether serve-sweep request i of a run seeded with
// seed has its body checked against a direct registry run: about one
// request in every `every`, chosen by a hash of (seed, i).
func Sampled(seed int64, i, every int) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%uint64(every) == 0
}

// ToConfig merges a request into the server's base scenario the way the
// server does: the request's experiment and model knobs over the base's
// dataset identity. Requests here never name a seed or scale.
func ToConfig(base leodivide.ScenarioConfig, req leodivide.ScenarioRequest) leodivide.ScenarioConfig {
	c := base
	c.Experiment = req.Experiment
	c.MaxOversub = req.MaxOversub
	c.AffordShare = req.AffordShare
	c.Spreads = req.Spreads
	c.Plans = req.Plans
	c.Constellation = req.Constellation
	c.CostSatelliteUSD = req.CostSatelliteUSD
	c.CostLifeYears = req.CostLifeYears
	c.CostTerminalUSD = req.CostTerminalUSD
	c.Region = req.Region
	return c
}

// ExpectedBody computes, by a direct registry run, the response body
// the server must return for req: the same Response envelope around the
// experiment's result. datasets maps region keys to datasets of the
// server's (seed, scale) identity.
func ExpectedBody(ctx context.Context, base leodivide.ScenarioConfig, req leodivide.ScenarioRequest,
	datasets map[string]*leodivide.Dataset) ([]byte, error) {
	cfg := ToConfig(base, req)
	key, err := cfg.CanonicalKey()
	if err != nil {
		return nil, err
	}
	n := cfg.Normalized()
	ds, ok := datasets[n.Region]
	if !ok {
		return nil, fmt.Errorf("perfbench: no dataset for region %q", n.Region)
	}
	exp, ok := cfg.BuildModel().ExperimentByName(n.Experiment)
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown experiment %q", n.Experiment)
	}
	v, err := exp.Run(ctx, ds)
	if err != nil {
		return nil, fmt.Errorf("perfbench: direct run of %s: %w", key, err)
	}
	return json.Marshal(serve.Response{
		Schema:     leodivide.ScenarioSchema,
		Key:        key,
		Experiment: n.Experiment,
		Seed:       n.Seed,
		Scale:      n.Scale,
		Result:     v,
	})
}
