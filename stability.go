package leodivide

import (
	"context"
	"fmt"
	"math"

	"leodivide/internal/core"
	"leodivide/internal/par"
)

// StabilityResult reports how the headline findings vary across
// independently seeded synthetic datasets — the reproduction's answer
// to "how much of this is the particular random draw?". The pinned
// calibration anchors (totals, peaks, percentile structure) are
// identical across seeds; what varies is geography (which cells sit
// where) and county attribution, so the variation isolates the
// model's sensitivity to the unpinned degrees of freedom.
type StabilityResult struct {
	Seeds int
	// Table2Spread2 summarizes the capped beamspread-2 constellation.
	Table2Spread2 StabilityStat
	// UnaffordableFraction summarizes Finding 4.
	UnaffordableFraction StabilityStat
	// ServedFractionAt20 summarizes Finding 1 (pinned anchors make it
	// exactly constant; reported as a self-check).
	ServedFractionAt20 StabilityStat
}

// StabilityStat is a mean ± standard deviation pair with extremes.
type StabilityStat struct {
	Mean, StdDev, Min, Max float64
}

// RelSpread returns StdDev/Mean (0 when the mean is 0).
func (s StabilityStat) RelSpread() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// unsubsidizedStarlinkFraction extracts Finding 4's headline number —
// the fraction of locations that cannot afford the unsubsidized
// Starlink Residential plan — from a Fig4 result. A comparison that
// lacks that plan is an error: silently feeding an empty slice to
// newStabilityStat would report Mean=NaN, Min=+Inf, Max=-Inf.
func unsubsidizedStarlinkFraction(f4 Fig4Result) (float64, error) {
	for _, r := range f4.Results {
		if r.Plan.Name == "Starlink Residential" && r.Subsidy == nil {
			return r.UnaffordableFraction, nil
		}
	}
	return 0, fmt.Errorf(`no unsubsidized "Starlink Residential" plan in the affordability comparison; cannot compute Finding-4 stability`)
}

func newStabilityStat(values []float64) StabilityStat {
	out := StabilityStat{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range values {
		sum += v
		out.Min = math.Min(out.Min, v)
		out.Max = math.Max(out.Max, v)
	}
	out.Mean = sum / float64(len(values))
	varsum := 0.0
	for _, v := range values {
		d := v - out.Mean
		varsum += d * d
	}
	if len(values) > 1 {
		out.StdDev = math.Sqrt(varsum / float64(len(values)-1))
	}
	return out
}

// Stability regenerates the dataset under nSeeds different seeds and
// measures the dispersion of the headline results. scale shrinks the
// datasets for speed (1.0 = full scale). Seeds are evaluated
// concurrently (each is an independent generation) and collected in
// seed order, so the statistics match the serial sweep exactly.
func (m Model) Stability(ctx context.Context, nSeeds int, scale float64) (StabilityResult, error) {
	if nSeeds < 2 {
		return StabilityResult{}, fmt.Errorf("leodivide: stability needs ≥2 seeds, got %d", nSeeds)
	}
	type seedResult struct {
		sats, unaff, served float64
	}
	results, err := par.Map(ctx, m.Capacity.Parallelism, nSeeds, func(i int) (seedResult, error) {
		seed := int64(i + 1)
		ds, err := GenerateDataset(ctx, WithSeed(seed), WithScale(scale))
		if err != nil {
			return seedResult{}, fmt.Errorf("leodivide: seed %d: %w", seed, err)
		}
		size := m.Capacity.Size(ds.Distribution(), core.CappedOversub, 2, m.MaxOversub)
		f1, err := m.Finding1(ctx, ds)
		if err != nil {
			return seedResult{}, err
		}
		f4, err := m.Fig4(ctx, ds)
		if err != nil {
			return seedResult{}, err
		}
		unaff, err := unsubsidizedStarlinkFraction(f4)
		if err != nil {
			return seedResult{}, fmt.Errorf("leodivide: seed %d: %w", seed, err)
		}
		return seedResult{
			sats:   float64(size.Satellites),
			served: f1.ServedFractionAtCap,
			unaff:  unaff,
		}, nil
	})
	if err != nil {
		return StabilityResult{}, err
	}
	var sats, unaff, served []float64
	for _, r := range results {
		sats = append(sats, r.sats)
		served = append(served, r.served)
		unaff = append(unaff, r.unaff)
	}
	return StabilityResult{
		Seeds:                nSeeds,
		Table2Spread2:        newStabilityStat(sats),
		UnaffordableFraction: newStabilityStat(unaff),
		ServedFractionAt20:   newStabilityStat(served),
	}, nil
}
