// Package staterollup rolls the national analysis up to state granularity:
// per-state demand profiles, capacity stress, and affordability — the
// view a state broadband office (or a BEAD subgrantee evaluator) needs
// when deciding whether LEO service can stand in for terrestrial
// builds in its territory.
package staterollup

import (
	"fmt"
	"sort"

	"leodivide/internal/afford"
	"leodivide/internal/beams"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/usgeo"
)

// StateProfile is one state's rollup.
type StateProfile struct {
	// Abbr and Name identify the state.
	Abbr, Name string
	// Locations is the state's un(der)served location count.
	Locations int
	// Cells is the state's demand-cell count.
	Cells int
	// PeakCellLocations is the densest cell.
	PeakCellLocations int
	// MedianCellLocations is the median cell density.
	MedianCellLocations int
	// RequiredOversub is the oversubscription the state's densest cell
	// forces for full service.
	RequiredOversub float64
	// UnservableAt20 counts locations beyond the 20:1 per-cell cap.
	UnservableAt20 int
	// UnaffordableFraction is the share of the state's locations unable
	// to afford Starlink Residential at 2% of income.
	UnaffordableFraction float64
}

// Config parameterizes the rollup.
type Config struct {
	// Beams is the satellite beam model.
	Beams beams.Config
	// MaxOversub is the acceptable oversubscription cap.
	MaxOversub float64
	// Plan and Subsidy select the affordability evaluation.
	Plan    afford.Plan
	Subsidy *afford.Subsidy
	// Share is the affordability threshold.
	Share float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Beams:      beams.DefaultConfig(),
		MaxOversub: 20,
		Plan:       afford.StarlinkResidential(),
		Share:      afford.DefaultAffordabilityShare,
	}
}

// ByState computes per-state profiles from the national cells and
// income table, sorted by location count descending.
func ByState(cfg Config, cells []demand.Cell, incomes *census.Table) ([]StateProfile, error) {
	if err := cfg.Beams.Validate(); err != nil {
		return nil, err
	}
	groups := make(map[string][]demand.Cell)
	for _, c := range cells {
		s, ok := usgeo.StateAt(c.Center)
		if !ok {
			continue
		}
		groups[s.Abbr] = append(groups[s.Abbr], c)
	}
	out := make([]StateProfile, 0, len(groups))
	for abbr, stateCells := range groups {
		st, err := usgeo.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		dist, err := demand.NewDistribution(stateCells)
		if err != nil {
			continue // a state with zero-demand cells only
		}
		profile := StateProfile{
			Abbr:                abbr,
			Name:                st.Name,
			Locations:           dist.TotalLocations(),
			Cells:               dist.NumCells(),
			PeakCellLocations:   dist.Peak().Locations,
			MedianCellLocations: dist.Quantile(0.5),
			RequiredOversub:     cfg.Beams.RequiredOversubscription(dist.Peak().Locations),
			UnservableAt20:      dist.ExcessAbove(cfg.Beams.MaxServableLocations(cfg.MaxOversub)),
		}
		if incomes != nil {
			if in, err := stateAffordInput(dist, incomes); err == nil {
				res := in.Evaluate(cfg.Plan, cfg.Subsidy, cfg.Share)
				profile.UnaffordableFraction = res.UnaffordableFraction
			}
		}
		out = append(out, profile)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Locations != out[j].Locations {
			return out[i].Locations > out[j].Locations
		}
		return out[i].Abbr < out[j].Abbr
	})
	return out, nil
}

// stateAffordInput restricts the national income table to the state's
// counties, reweighted by the state's location counts.
func stateAffordInput(dist *demand.Distribution, incomes *census.Table) (*afford.Input, error) {
	weights := dist.CountyWeights()
	fips := make([]string, 0, len(weights))
	for f := range weights {
		fips = append(fips, f)
	}
	sort.Strings(fips)
	recs := make([]census.CountyIncome, 0, len(fips))
	for _, f := range fips {
		rec, ok := incomes.Lookup(f)
		if !ok {
			continue
		}
		rec.Weight = float64(weights[f])
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("regions: no income records for state counties")
	}
	return afford.NewInput(census.NewTable(recs))
}

// TopStressed returns the n states whose densest cells force the
// highest oversubscription — where LEO capacity bites first.
func TopStressed(profiles []StateProfile, n int) []StateProfile {
	sorted := make([]StateProfile, len(profiles))
	copy(sorted, profiles)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].RequiredOversub != sorted[j].RequiredOversub {
			return sorted[i].RequiredOversub > sorted[j].RequiredOversub
		}
		return sorted[i].Abbr < sorted[j].Abbr
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
