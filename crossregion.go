package leodivide

// Cross-region analysis: the paper's headline claim — LEO serves
// anyone anywhere, not everyone everywhere — asked of every declared
// demand geography instead of the US map alone. The xregion registry
// experiment regenerates each region at the active dataset's (seed,
// scale) identity and reports, per region, the service fraction the
// active system's per-cell cap admits, the fleet the capped sizing
// rule demands, and the affordability of the reference plan — then
// names which constraint binds.
//
// The interesting physics is the latitude-density machinery: an
// inclined fleet's satellite density peaks near its inclination and
// thins toward the equator, so a sparse equatorial geography
// (brazil-rural) pays a satellite-count premium per covered cell while
// its low incomes make affordability the binding constraint; a compact
// mid-latitude urban geography (taipei-dense) sits in a denser part of
// the shell but stacks so much demand per cell that the per-cell beam
// cap binds long before anyone's budget does.

import (
	"context"
	"math"

	"leodivide/internal/afford"
	"leodivide/internal/core"
	"leodivide/internal/region"
)

// regionKeys returns the declared region keys in canonical order.
func regionKeys() []string { return region.Names() }

// regionDisplayName resolves a region key's display name (the key
// itself for unknown keys, keeping row construction total).
func regionDisplayName(key string) string {
	if r, ok := region.ByName(key); ok {
		return r.Name()
	}
	return key
}

// RegionRow is one geography's line of the xregion table.
type RegionRow struct {
	// Region is the canonical key; DisplayName the human-readable name.
	Region      string
	DisplayName string
	// TotalLocations and NumCells describe the generated demand map at
	// the run's scale.
	TotalLocations int
	NumCells       int
	// BindingLatDeg is the latitude of the binding demand cell — where
	// the constellation's latitude-dependent density must meet the
	// region's worst-case demand.
	BindingLatDeg float64
	// RequiredSatellites is the raw fleet the capped sizing rule
	// demands at spread 1 (scaling the active system's authorized
	// composition), and RequiredSpread the beamspread the authorized
	// fleet would need instead.
	RequiredSatellites int
	RequiredSpread     float64
	// ServedLocations and ServedFraction count the locations within the
	// system's hard per-cell cap at the oversubscription limit — the
	// capacity ceiling no fleet size lifts.
	ServedLocations int
	ServedFraction  float64
	// AffordableFraction is the share of locations that can afford the
	// reference plan (Starlink Residential, unsubsidized) at the
	// model's income share; UnaffordableFraction is its complement.
	AffordableFraction   float64
	UnaffordableFraction float64
	// BindingConstraint names the tighter of the two ceilings:
	// "capacity" when the served fraction is below the affordable
	// fraction, "affordability" otherwise.
	BindingConstraint string
}

// CrossRegionResult is the xregion experiment output.
type CrossRegionResult struct {
	// System is the active constellation the comparison runs under.
	System      string
	MaxOversub  float64
	AffordShare float64
	// Rows hold one line per declared region, in canonical order.
	Rows []RegionRow
}

// CrossRegion builds the xregion table: every declared region
// regenerated at the active dataset's (seed, scale) identity and
// analyzed under the active system. The dataset passed in is reused
// for its own region, so the default serve/CLI path generates only the
// two sibling geographies. Regions are generated serially in canonical
// order — generation fans out internally, and a serial outer loop
// keeps the stage-memo warm-up order deterministic.
func (m Model) CrossRegion(ctx context.Context, d *Dataset) (CrossRegionResult, error) {
	out := CrossRegionResult{
		System:      m.System.Key,
		MaxOversub:  m.MaxOversub,
		AffordShare: m.AffordShare,
	}
	for _, key := range regionKeys() {
		rd, err := m.regionDataset(ctx, d, key)
		if err != nil {
			return CrossRegionResult{}, err
		}
		row, err := m.regionRow(rd)
		if err != nil {
			return CrossRegionResult{}, err
		}
		out.Rows = append(out.Rows, row)
		if err := ctx.Err(); err != nil {
			return CrossRegionResult{}, err
		}
	}
	return out, nil
}

// regionDataset resolves the dataset for one region: the active
// dataset when it already is that geography, a fresh generation at the
// same (seed, scale) otherwise. Datasets predating the region field
// (zero Region/Scale) count as the default region at full scale.
func (m Model) regionDataset(ctx context.Context, d *Dataset, key string) (*Dataset, error) {
	dsRegion, dsScale := d.Region, d.Scale
	if dsRegion == "" {
		dsRegion = "us"
	}
	if dsScale == 0 {
		dsScale = 1
	}
	if dsRegion == key {
		return d, nil
	}
	return GenerateDataset(ctx,
		WithSeed(d.Seed),
		WithScale(dsScale),
		WithRegion(key),
		WithParallelism(m.Capacity.Parallelism),
	)
}

// regionRow analyzes one generated geography under the active system.
func (m Model) regionRow(d *Dataset) (RegionRow, error) {
	dist := d.Distribution()
	c := m.Capacity
	sizing := c.Size(dist, core.CappedOversub, 1, m.MaxOversub)
	lat := sizing.BindingCell.Center.Lat
	equivFull := m.System.EquivalentSingleShellSatellites(m.System.SizingShell(), lat)
	if equivFull < 1 {
		equivFull = 1
	}
	total := m.System.TotalSatellites()
	inv := c.InverseSize(dist, equivFull, m.MaxOversub)

	hardCap := c.Beams.MaxServableLocations(m.MaxOversub)
	totalLocs := dist.TotalLocations()
	served := totalLocs - dist.ExcessAbove(hardCap)
	servedFraction := float64(served) / float64(totalLocs)

	in, err := d.affordInput()
	if err != nil {
		return RegionRow{}, err
	}
	res := in.Evaluate(afford.StarlinkResidential(), nil, m.AffordShare)
	affordable := 1 - res.UnaffordableFraction

	binding := "affordability"
	if servedFraction < affordable {
		binding = "capacity"
	}
	key := d.Region
	if key == "" {
		key = region.DefaultKey
	}
	return RegionRow{
		Region:               key,
		DisplayName:          regionDisplayName(key),
		TotalLocations:       totalLocs,
		NumCells:             dist.NumCells(),
		BindingLatDeg:        lat,
		RequiredSatellites:   int(math.Ceil(float64(sizing.Satellites) * float64(total) / float64(equivFull))),
		RequiredSpread:       inv.RequiredSpread,
		ServedLocations:      served,
		ServedFraction:       servedFraction,
		AffordableFraction:   affordable,
		UnaffordableFraction: res.UnaffordableFraction,
		BindingConstraint:    binding,
	}, nil
}
