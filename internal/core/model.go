// Package core implements the paper's analytical capacity model: the
// single-satellite capacity budget (Table 1), the peak-demand-driven
// constellation sizing rule (P2, Table 2), the beamspread ×
// oversubscription service-fraction surface (Figure 2), and the
// diminishing-returns sweep over the demand long tail (Figure 3).
//
// The model's chain of reasoning:
//
//  1. Spectrum fixes a maximum per-cell capacity (≈17.3 Gbps via 4
//     beams); the FCC benchmark fixes per-location demand (100 Mbps).
//  2. The densest cell therefore fixes the minimum oversubscription for
//     full service, and — via the number of beams the satellite above
//     it must dedicate — how many cells that satellite can still cover.
//  3. Continuous coverage converts the required satellite density at the
//     peak cell's latitude into a total constellation size using the
//     Walker-shell latitude density profile.
package core

import (
	"context"
	"fmt"
	"math"

	"leodivide/internal/beams"
	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
	"leodivide/internal/spectrum"
)

// BindingMode selects which cells may determine the constellation size.
type BindingMode int

const (
	// BindPeakOnly reproduces the paper's lower bound: only the cells
	// requiring the maximum beam count bind, and among them the one at
	// the least-dense latitude.
	BindPeakOnly BindingMode = iota
	// BindAllCells is the tighter extension: every demand cell imposes
	// a density constraint (a 1-beam cell at a sparse low latitude can
	// out-bind a 4-beam cell at a dense mid latitude).
	BindAllCells
)

// String names the binding mode.
func (b BindingMode) String() string {
	switch b {
	case BindPeakOnly:
		return "peak-only"
	case BindAllCells:
		return "all-cells"
	default:
		return fmt.Sprintf("BindingMode(%d)", int(b))
	}
}

// Model carries the fixed parameters of a capacity analysis. Obtain a
// paper-default instance from NewModel and adjust fields for ablations.
type Model struct {
	// Beams is the satellite beam/spectrum configuration.
	Beams beams.Config
	// InclinationDeg is the shell inclination used for the latitude
	// density profile.
	InclinationDeg float64
	// CellAreaKm2 is the service-cell area.
	CellAreaKm2 float64
	// Binding selects the sizing constraint set.
	Binding BindingMode
	// CalibratedEffectiveCells, when positive, pins the effective
	// global cell count at CalibrationLatDeg to the paper's fitted
	// value (≈1.665e6) instead of deriving it from CellAreaKm2 and the
	// shell geometry. Other latitudes scale by the density profile.
	CalibratedEffectiveCells float64
	// CalibrationLatDeg is the reference latitude for the calibrated
	// effective cell count.
	CalibrationLatDeg float64
	// UTDownlinkMHz and SpectralEfficiencyBpsPerHz describe the
	// spectrum behind Beams, reported by Capacity (Table 1). Zero
	// values fall back to the Starlink Schedule S constants so
	// hand-built models keep working.
	UTDownlinkMHz              float64
	SpectralEfficiencyBpsPerHz float64
	// Parallelism bounds the worker count for the sweep methods
	// (SizeTable, ServedFractionGrid, DiminishingReturns, AssessFleet,
	// ServedFractionOverDay). 0 means one worker per CPU; 1 is the exact
	// serial path. Every sweep point is an independent pure function of
	// the model and dataset and lands in an index-ordered slot, so
	// results are identical at every setting.
	//
	// Through the facade, this is also the bound for leodivide's own
	// fan-outs; set it via Model.Parallelism (or RunConfig).
	Parallelism int
}

// PaperEffectiveCells is the effective global cell count implied by the
// paper's Table 2 (N·(1+20s) is constant at ≈1,665,027 across all five
// beamspread rows of the full-service column).
const PaperEffectiveCells = 1665027

// NewModel returns the model with the paper's parameters: Starlink beam
// budget, 53° shell, resolution-5 cell area, geometric effective cells,
// peak-only binding. It is NewModelFor applied to the Starlink spec.
func NewModel() Model {
	return NewModelFor(constellation.StarlinkSystem())
}

// NewModelFor returns the capacity model a constellation spec implies:
// the system's beam configuration, its sizing-shell inclination for the
// latitude density profile, and its spectrum figures for Table 1
// reporting. Cell area, binding mode and calibration latitude are
// properties of the demand grid and the paper's fit, not of the
// system, and stay at their paper defaults.
func NewModelFor(sys constellation.System) Model {
	return Model{
		Beams:                      beams.ForSystem(sys),
		InclinationDeg:             sys.SizingInclinationDeg,
		CellAreaKm2:                hexgrid.Resolution(5).AvgCellAreaKm2(),
		Binding:                    BindPeakOnly,
		CalibrationLatDeg:          34.8,
		UTDownlinkMHz:              spectrum.UTDownlinkMHzOf(sys.Bands),
		SpectralEfficiencyBpsPerHz: sys.SpectralEfficiencyBpsPerHz,
	}
}

// Calibrated returns a copy of the model with the effective cell count
// pinned to the paper's fitted value.
func (m Model) Calibrated() Model {
	m.CalibratedEffectiveCells = PaperEffectiveCells
	return m
}

// EffectiveCells returns the effective number of cells the constellation
// must cover, given that the binding constraint sits at latDeg: the
// Earth's cell count divided by the shell's density enhancement there.
func (m Model) EffectiveCells(latDeg float64) float64 {
	f := orbit.DensityFactor(m.InclinationDeg, latDeg)
	if m.CalibratedEffectiveCells > 0 {
		fRef := orbit.DensityFactor(m.InclinationDeg, m.CalibrationLatDeg)
		return m.CalibratedEffectiveCells * fRef / f
	}
	return geo.EarthAreaKm2 / (m.CellAreaKm2 * f)
}

// ConstellationSize returns the satellites required when the binding
// cell at latDeg needs peakBeams dedicated beams and all other beams
// spread over spreadFactor cells.
func (m Model) ConstellationSize(spreadFactor float64, peakBeams int, latDeg float64) int {
	cellsPerSat := m.Beams.CellsPerSatellite(spreadFactor, peakBeams)
	return int(math.Ceil(m.EffectiveCells(latDeg) / cellsPerSat))
}

// CapacityTable reproduces the paper's Table 1: the single-satellite
// capacity model applied to the peak-demand cell.
type CapacityTable struct {
	UTDownlinkMHz              float64
	SpectralEfficiencyBpsPerHz float64
	MaxCellCapacityGbps        float64
	PeakCellLocations          int
	FCCDownMbps, FCCUpMbps     float64
	PeakCellDemandGbps         float64
	MaxOversubscription        float64
}

// Capacity evaluates the Table 1 quantities against the dataset's peak
// cell.
func (m Model) Capacity(d *demand.Distribution) CapacityTable {
	peak := d.Peak()
	demandGbps := m.Beams.CellDemandGbps(peak.Locations)
	mhz := m.UTDownlinkMHz
	if mhz == 0 {
		mhz = spectrum.UTDownlinkMHz()
	}
	eff := m.SpectralEfficiencyBpsPerHz
	if eff == 0 {
		eff = spectrum.SpectralEfficiencyBpsPerHz
	}
	return CapacityTable{
		UTDownlinkMHz:              mhz,
		SpectralEfficiencyBpsPerHz: eff,
		MaxCellCapacityGbps:        m.Beams.MaxCellCapacityGbps(),
		PeakCellLocations:          peak.Locations,
		FCCDownMbps:                spectrum.FCCDownlinkMbps,
		FCCUpMbps:                  spectrum.FCCUplinkMbps,
		PeakCellDemandGbps:         demandGbps,
		MaxOversubscription:        m.Beams.RequiredOversubscription(peak.Locations),
	}
}

// OversubAnalysis reproduces Finding 1: what oversubscription full
// service requires, and what a regulator-acceptable cap leaves behind.
type OversubAnalysis struct {
	// MaxOversub is the cap analysed (20:1 in the paper).
	MaxOversub float64
	// RequiredOversub is the oversubscription full service of the peak
	// cell demands (~35:1).
	RequiredOversub float64
	// CapLocations is the largest servable cell at the cap (3,460).
	CapLocations int
	// CellsAboveCap counts cells denser than the cap (5).
	CellsAboveCap int
	// LocationsInCellsAboveCap counts locations living in those cells
	// (22,428): all of them see >cap oversubscription if fully served.
	LocationsInCellsAboveCap int
	// ExcessLocations counts locations beyond the per-cell cap (5,128):
	// the locations that cannot be served at all within the cap.
	ExcessLocations int
	// ServedFractionAtCap is the fraction of all locations servable at
	// the cap (99.89%).
	ServedFractionAtCap float64
	// TotalLocations is the dataset total.
	TotalLocations int
}

// Oversubscription analyses the dataset against an oversubscription cap.
func (m Model) Oversubscription(d *demand.Distribution, maxOversub float64) OversubAnalysis {
	capLoc := m.Beams.MaxServableLocations(maxOversub)
	return OversubAnalysis{
		MaxOversub:               maxOversub,
		RequiredOversub:          m.Beams.RequiredOversubscription(d.Peak().Locations),
		CapLocations:             capLoc,
		CellsAboveCap:            d.CellsAbove(capLoc),
		LocationsInCellsAboveCap: d.LocationsInCellsAbove(capLoc),
		ExcessLocations:          d.ExcessAbove(capLoc),
		ServedFractionAtCap:      d.ServedFractionWithCap(capLoc),
		TotalLocations:           d.TotalLocations(),
	}
}

// Scenario selects a deployment strategy for sizing.
type Scenario int

const (
	// FullService serves every location, letting the peak cell's
	// oversubscription float as high as needed (~35:1).
	FullService Scenario = iota
	// CappedOversub serves at most the oversubscription cap per cell,
	// leaving the excess locations in the densest cells unserved.
	CappedOversub
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case FullService:
		return "full service"
	case CappedOversub:
		return "capped oversubscription"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// SizingResult is the constellation size required for one scenario and
// beamspread.
type SizingResult struct {
	Scenario    Scenario
	Spread      float64
	Oversub     float64 // the oversubscription in force
	PeakBeams   int     // beams dedicated to the binding cell
	BindingCell demand.Cell
	Satellites  int
	// UnservedLocations counts locations left out (0 for FullService).
	UnservedLocations int
}

// Size computes the constellation required for a scenario at a
// beamspread factor. maxOversub only applies to CappedOversub.
func (m Model) Size(d *demand.Distribution, sc Scenario, spread, maxOversub float64) SizingResult {
	var oversub float64
	var unserved int
	switch sc {
	case FullService:
		oversub = m.Beams.RequiredOversubscription(d.Peak().Locations)
	case CappedOversub:
		oversub = maxOversub
		unserved = d.ExcessAbove(m.Beams.MaxServableLocations(maxOversub))
	}
	capLoc := m.Beams.MaxServableLocations(oversub)
	res := m.sizeWithCap(d, spread, oversub, capLoc)
	res.Scenario = sc
	res.UnservedLocations = unserved
	return res
}

// sizeWithCap sizes the constellation when every cell is served up to
// capLoc locations at the given oversubscription. In peak-only mode
// the binding scan is spread-invariant, so it is memoized in the
// dataset's stage memo and only the final ConstellationSize evaluation
// runs per call; all-cells mode folds the spread into every cell's
// constraint and runs the full columnar loop (see stage.go for both).
func (m Model) sizeWithCap(d *demand.Distribution, spread, oversub float64, capLoc int) SizingResult {
	if m.Binding == BindAllCells {
		return m.sizeAllCells(d, spread, oversub, capLoc)
	}
	scan := m.peakScan(d, oversub, capLoc)
	binding := d.Cells()[scan.bindIdx]
	return SizingResult{
		Spread:      spread,
		Oversub:     oversub,
		PeakBeams:   scan.maxBeams,
		BindingCell: binding,
		Satellites:  m.ConstellationSize(spread, scan.maxBeams, binding.Center.Lat),
	}
}

// SizeRow pairs the two scenarios of the paper's Table 2 at one
// beamspread factor.
type SizeRow struct {
	Spread               float64
	FullServiceSats      int
	CappedOversubSats    int
	FullServiceBinding   demand.Cell
	CappedOversubBinding demand.Cell
}

// SizeTable reproduces Table 2: constellation sizes for both scenarios
// across beamspread factors. Rows are computed concurrently under the
// model's Parallelism and returned in spread order.
func (m Model) SizeTable(ctx context.Context, d *demand.Distribution, spreads []float64, maxOversub float64) ([]SizeRow, error) {
	return par.Map(ctx, m.Parallelism, len(spreads), func(i int) (SizeRow, error) {
		s := spreads[i]
		full := m.Size(d, FullService, s, 0)
		capped := m.Size(d, CappedOversub, s, maxOversub)
		return SizeRow{
			Spread:               s,
			FullServiceSats:      full.Satellites,
			CappedOversubSats:    capped.Satellites,
			FullServiceBinding:   full.BindingCell,
			CappedOversubBinding: capped.BindingCell,
		}, nil
	})
}

// ServedFractionGrid reproduces Figure 2: for each (beamspread,
// oversubscription) pair, the fraction of US demand cells servable.
// With multiBeam false (the paper's current-constellation reading),
// each cell gets a single s-way-spread beam; with multiBeam true, up to
// the per-cell beam cap of s-way-spread beams.
// Rows (one per beamspread) are computed concurrently under the model's
// Parallelism and returned in axis order.
func (m Model) ServedFractionGrid(ctx context.Context, d *demand.Distribution, spreads, oversubs []float64, multiBeam bool) ([][]float64, error) {
	return par.Map(ctx, m.Parallelism, len(spreads), func(i int) ([]float64, error) {
		s := spreads[i]
		row := make([]float64, len(oversubs))
		for j, o := range oversubs {
			maxLoc := m.Beams.MaxLocationsUnderSpread(o, s)
			if multiBeam {
				maxLoc *= m.Beams.MaxBeamsPerCell
			}
			row[j] = d.FractionOfCellsAtMost(maxLoc)
		}
		return row, nil
	})
}

// ReturnsPoint is one point of the Figure-3 diminishing-returns curve.
type ReturnsPoint struct {
	// CapLocations is the per-cell service cap producing the point.
	CapLocations int
	// UnservedLocations is the x-axis: locations left unserved.
	UnservedLocations int
	// Satellites is the constellation size required.
	Satellites int
	// PeakBeams is the binding cell's beam requirement.
	PeakBeams int
}

// DiminishingReturns reproduces Figure 3 for one beamspread factor at a
// fixed oversubscription: sweeping the per-cell service cap from the
// single-beam limit up to the oversubscription limit, it returns the
// (unserved locations, constellation size) trade-off in the direction
// of serving more locations. The curve is stepped: satellites jump only
// when the cap crosses a per-beam boundary and pins another beam on the
// binding cell.
//
// The t-sweep fans out over the model's Parallelism: every cap value's
// (unserved, satellites) pair is an independent pure evaluation, and the
// serial skip-if-unchanged emission is equivalent to run-compressing the
// full precomputed sequence, so the curve is identical at every worker
// count.
//
// In peak-only mode the per-cap (unserved, beams) profile is
// spread-invariant and memoized in the dataset's stage memo; each call
// then maps it through the per-band satellite table for its spread and
// compresses — so a multi-spread Figure 3 pays for one profile sweep
// total, not one per spread.
func (m Model) DiminishingReturns(ctx context.Context, d *demand.Distribution, spread, oversub float64) ([]ReturnsPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hardCap := m.Beams.MaxServableLocations(oversub)
	perBeam := m.Beams.LocationsPerBeam(oversub)
	if perBeam > hardCap {
		return nil, nil
	}
	if m.Binding != BindPeakOnly {
		return m.diminishingReturnsAllCells(ctx, d, spread, oversub, hardCap, perBeam)
	}

	// The paper's narrative sizes every point of the sweep against the
	// same peak cell, with only its beam requirement changing as the cap
	// falls through per-beam boundaries. Fix the binding latitude from
	// the full-cap sizing and precompute the per-band sizes.
	maxBand := m.Beams.MaxBeamsPerCell
	bandSats := make([]int, maxBand+1) // indexed by beams
	bindLat := d.Cells()[m.peakScan(d, oversub, hardCap).bindIdx].Center.Lat
	for b := 1; b <= maxBand; b++ {
		bandSats[b] = m.ConstellationSize(spread, b, bindLat)
	}
	prof, err := m.returnsProfile(ctx, d, oversub)
	if err != nil {
		return nil, err
	}

	var out []ReturnsPoint
	lastUnserved, lastSats := -1, -1
	for i, p := range prof {
		sats := bandSats[p.beams]
		if p.unserved == lastUnserved && sats == lastSats {
			continue
		}
		out = append(out, ReturnsPoint{
			CapLocations:      perBeam + i,
			UnservedLocations: p.unserved,
			Satellites:        sats,
			PeakBeams:         p.beams,
		})
		lastUnserved, lastSats = p.unserved, sats
	}
	return out, nil
}

// diminishingReturnsAllCells is the unstaged sweep for BindAllCells,
// where the constellation size at every cap depends on the spread
// through every cell's constraint and cannot be shared.
func (m Model) diminishingReturnsAllCells(ctx context.Context, d *demand.Distribution, spread, oversub float64, hardCap, perBeam int) ([]ReturnsPoint, error) {
	raw, err := par.Map(ctx, m.Parallelism, hardCap-perBeam+1, func(i int) (ReturnsPoint, error) {
		t := perBeam + i
		unserved := d.ExcessAbove(t)
		b, _ := m.Beams.BeamsForCell(t, oversub)
		return ReturnsPoint{
			CapLocations:      t,
			UnservedLocations: unserved,
			Satellites:        m.sizeWithCap(d, spread, oversub, t).Satellites,
			PeakBeams:         b,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []ReturnsPoint
	lastUnserved, lastSats := -1, -1
	for _, p := range raw {
		if p.UnservedLocations == lastUnserved && p.Satellites == lastSats {
			continue
		}
		out = append(out, p)
		lastUnserved, lastSats = p.UnservedLocations, p.Satellites
	}
	return out, nil
}

// StepCost summarizes one step of the diminishing-returns curve: how
// many additional satellites the next tranche of locations costs.
type StepCost struct {
	FromUnserved, ToUnserved int
	LocationsGained          int
	AdditionalSatellites     int
}

// StepCosts extracts the satellite cost of each step of a
// diminishing-returns curve (the paper's Figure 3 annotations).
func StepCosts(points []ReturnsPoint) []StepCost {
	var out []StepCost
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.Satellites == prev.Satellites {
			continue
		}
		out = append(out, StepCost{
			FromUnserved:         prev.UnservedLocations,
			ToUnserved:           cur.UnservedLocations,
			LocationsGained:      prev.UnservedLocations - cur.UnservedLocations,
			AdditionalSatellites: cur.Satellites - prev.Satellites,
		})
	}
	return out
}
