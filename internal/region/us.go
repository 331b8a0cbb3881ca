package region

// The "us" region: the calibrated BDC + census pipeline behind a
// Region. This is a relocation, not a rewrite — the scale application,
// the cell generation, and the income assignment (including the
// per-county fnv hash jitter that orders the poverty ranking) are the
// exact statements the root facade's GenerateDataset used to execute
// inline, so the output is byte-identical to the legacy path at every
// (seed, scale, parallelism). The golden corpus enforces that identity.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"leodivide/internal/bdc"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/usgeo"
)

var metricIncomeSecs = obs.Default.Histogram("gen.assign_incomes.seconds", obs.DurationBuckets)

// usRegion runs the calibrated BDC generator configuration and income
// anchors.
type usRegion struct{}

// US returns the default region: the paper-calibrated United States
// pipeline.
func US() Region {
	return usRegion{}
}

func (usRegion) Key() string  { return DefaultKey }
func (usRegion) Name() string { return "United States" }
func (usRegion) Description() string {
	return "calibrated US un(der)served broadband map (BDC + census pipeline)"
}

// Generate runs the legacy pipeline: scale the BDC configuration,
// synthesize cells, build the distribution, assign county incomes.
func (usRegion) Generate(ctx context.Context, g GenConfig) (Output, error) {
	if err := g.Validate(); err != nil {
		return Output{}, err
	}
	cfg := bdc.DefaultGenConfig()
	cfg.Seed = g.Seed
	cfg.Parallelism = g.Parallelism
	if g.Scale < 1 {
		cfg.TotalLocations = int(float64(cfg.TotalLocations) * g.Scale)
		peaks := make([]bdc.PeakCell, len(cfg.Peaks))
		copy(peaks, cfg.Peaks)
		for i := range peaks {
			peaks[i].Locations = int(float64(peaks[i].Locations) * g.Scale)
			if peaks[i].Locations < 1 {
				peaks[i].Locations = 1
			}
		}
		cfg.Peaks = peaks
	}
	cells, err := bdc.GenerateCells(ctx, cfg)
	if err != nil {
		return Output{}, err
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		return Output{}, err
	}
	incomes, err := assignIncomes(ctx, dist, census.DefaultIncomeAnchors(), g.Seed, cfg.Parallelism)
	if err != nil {
		return Output{}, err
	}
	return Output{Cells: cells, Dist: dist, Incomes: incomes, Resolution: cfg.Resolution}, nil
}

// assignIncomes distributes county incomes using a deterministic
// poverty ordering: state rural weight (a proxy for rural poverty) plus
// a per-county hash jitter. County weights are computed concurrently
// over the sorted FIPS list, so the assignment input (and therefore the
// table) is identical at every worker count.
func assignIncomes(ctx context.Context, dist *demand.Distribution, anchors []census.QuantileAnchor, seed int64, workers int) (*census.Table, error) {
	//lint:ignore detrand wall-clock feeds the generation span timing only, never the dataset
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "gen.assign_incomes")
	defer func() {
		metricIncomeSecs.ObserveSince(start)
		span.End()
	}()
	weights := dist.CountyWeights()
	fipsList := make([]string, 0, len(weights))
	for fips := range weights {
		fipsList = append(fipsList, fips)
	}
	sort.Strings(fipsList)
	cw, err := par.Map(ctx, workers, len(fipsList), func(i int) (census.CountyWeight, error) {
		fips := fipsList[i]
		abbr, err := stateOfFIPS(fips)
		if err != nil {
			return census.CountyWeight{}, err
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d:%s", seed, fips)
		jitter := float64(h.Sum64()%10000) / 10000
		return census.CountyWeight{
			FIPS:        fips,
			StateAbbr:   abbr,
			Weight:      float64(weights[fips]),
			PovertyRank: jitter,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return census.AssignIncomes(cw, anchors)
}

// stateOfFIPS maps a county FIPS prefix to a state abbreviation via the
// usgeo tables. An unknown or too-short prefix is a hard error: a
// silently empty state abbreviation used to flow into the income table
// and skew the poverty ordering without any signal. The lookup table is
// built once under sync.Once — income assignment calls this from pool
// workers, so unsynchronized lazy initialization would race.
func stateOfFIPS(fips string) (string, error) {
	if len(fips) < 2 {
		return "", fmt.Errorf("region: county FIPS %q too short for a state prefix", fips)
	}
	stateFIPSOnce.Do(func() {
		m := make(map[string]string)
		for _, s := range usgeo.States() {
			m[s.FIPS] = s.Abbr
		}
		stateFIPSByPrefix = m
	})
	abbr, ok := stateFIPSByPrefix[fips[:2]]
	if !ok {
		return "", fmt.Errorf("region: unknown state FIPS prefix %q in county FIPS %q", fips[:2], fips)
	}
	return abbr, nil
}

var (
	stateFIPSOnce     sync.Once
	stateFIPSByPrefix map[string]string
)
