package leodivide

// The benchmark harness: one benchmark per table and figure of the
// paper. Each benchmark regenerates the artifact from the calibrated
// synthetic dataset and reports the headline numbers alongside the
// paper's values via b.ReportMetric, so `go test -bench=.` doubles as
// the reproduction run recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"leodivide/internal/core"
	"leodivide/internal/sim"
	"leodivide/internal/staterollup"
)

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	ds := fullDataset(b)
	b.ResetTimer()
	return ds
}

// BenchmarkFig1CellDensityCDF regenerates Figure 1: the distribution of
// un(der)served locations per service cell. Paper: max 5998, p99 1437,
// p90 552.
func BenchmarkFig1CellDensityCDF(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Fig1(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MaxCell), "max-cell(paper=5998)")
	b.ReportMetric(float64(r.P99), "p99(paper=1437)")
	b.ReportMetric(float64(r.P90), "p90(paper=552)")
}

// BenchmarkTable1CapacityModel regenerates Table 1: the single-satellite
// capacity model. Paper: 17.3 Gbps per cell, 599.8 Gbps peak demand,
// ~35:1 max oversubscription.
func BenchmarkTable1CapacityModel(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var c core.CapacityTable
	for i := 0; i < b.N; i++ {
		var err error
		c, err = m.Table1(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.MaxCellCapacityGbps, "cell-Gbps(paper=17.3)")
	b.ReportMetric(c.PeakCellDemandGbps, "peak-Gbps(paper=599.8)")
	b.ReportMetric(c.MaxOversubscription, "oversub(paper=35)")
}

// BenchmarkFinding1Oversubscription regenerates Finding 1. Paper:
// 22,428 locations in cells above the 20:1 cap, 5,128 unservable,
// 99.89% servable.
func BenchmarkFinding1Oversubscription(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var o core.OversubAnalysis
	for i := 0; i < b.N; i++ {
		var err error
		o, err = m.Finding1(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.LocationsInCellsAboveCap), "locs-above(paper=22428)")
	b.ReportMetric(float64(o.ExcessLocations), "excess(paper=5128)")
	b.ReportMetric(o.ServedFractionAtCap*100, "served-pct(paper=99.89)")
}

// BenchmarkTable2ConstellationSize regenerates Table 2 with the
// paper-calibrated effective cell count. Paper full-service column:
// 79287/40611/16486/8284/5532 for beamspread 1/2/5/10/15.
func BenchmarkTable2ConstellationSize(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel().Calibrated()
	var r Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Table2(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Rows[0].FullServiceSats), "s1-full(paper=79287)")
	b.ReportMetric(float64(r.Rows[1].FullServiceSats), "s2-full(paper=40611)")
	b.ReportMetric(float64(r.Rows[4].CappedOversubSats), "s15-capped(paper=5621)")
}

// BenchmarkFig2ServedFractionGrid regenerates Figure 2: the beamspread ×
// oversubscription served-fraction surface. Paper colour scale spans
// ~0.36 to ~0.99.
func BenchmarkFig2ServedFractionGrid(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Fig2(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Fraction[len(r.Spreads)-1][0], "min-frac(paper~0.36)")
	b.ReportMetric(r.Fraction[0][len(r.Oversubs)-1], "max-frac(paper~0.99)")
}

// BenchmarkFig3DiminishingReturns regenerates Figure 3 for all of the
// paper's beamspread factors at 20:1. Paper: stepped curves with a
// ~5,103-location unservable floor.
func BenchmarkFig3DiminishingReturns(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var rs []Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = m.Fig3(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rs[len(rs)-1]
	b.ReportMetric(float64(last.FloorUnserved), "floor(paper=5103)")
	if n := len(last.Steps); n > 0 {
		b.ReportMetric(float64(last.Steps[n-1].AdditionalSatellites), "last-step-sats")
	}
}

// BenchmarkFig4AffordabilityCDF regenerates Figure 4 / Finding 4.
// Paper: 3.5M of 4.7M (74.5%) cannot afford Starlink Residential; ~3.0M
// with Lifeline.
func BenchmarkFig4AffordabilityCDF(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Fig4(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, res := range r.Results {
		if res.Plan.Name == "Starlink Residential" && res.Subsidy == nil {
			b.ReportMetric(res.UnaffordableLocations/1e6, "unaffordable-M(paper=3.5)")
			b.ReportMetric(res.UnaffordableFraction*100, "unaffordable-pct(paper=74.5)")
		}
	}
}

// BenchmarkSimCoverage cross-checks the analytic model with the
// time-stepped Walker-shell simulator over the demand cells.
func BenchmarkSimCoverage(b *testing.B) {
	ds := benchDataset(b)
	cfg := sim.DefaultConfig()
	cfg.Epochs = 2
	var res sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.Run(context.Background(), cfg, ds.Cells)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanCoveredFraction*100, "covered-pct")
	b.ReportMetric(res.MeanVisibleSats, "visible-sats")
}

// BenchmarkAblationSweeps regenerates the parameter-sensitivity
// ablations of DESIGN.md: spectral efficiency, beam budget, inclination
// and cell size, all measured at beamspread 2 full service.
func BenchmarkAblationSweeps(b *testing.B) {
	ds := benchDataset(b)
	base := NewModel()
	dist := ds.Distribution()
	var deltas [4]float64
	for i := 0; i < b.N; i++ {
		baseN := base.Capacity.Size(dist, core.FullService, 2, 0).Satellites

		mEff := base
		mEff.Capacity.Beams.BeamCapacityGbps *= 5.5 / 4.5
		deltas[0] = ratio(mEff.Capacity.Size(dist, core.FullService, 2, 0).Satellites, baseN)

		mBeams := base
		mBeams.Capacity.Beams.BeamsPerSatellite = 32
		deltas[1] = ratio(mBeams.Capacity.Size(dist, core.FullService, 2, 0).Satellites, baseN)

		mInc := base
		mInc.Capacity.InclinationDeg = 70
		deltas[2] = ratio(mInc.Capacity.Size(dist, core.FullService, 2, 0).Satellites, baseN)

		mCell := base
		mCell.Capacity.CellAreaKm2 *= 7
		deltas[3] = ratio(mCell.Capacity.Size(dist, core.FullService, 2, 0).Satellites, baseN)
	}
	b.ReportMetric(deltas[0], "x-eff5.5")
	b.ReportMetric(deltas[1], "x-32beams")
	b.ReportMetric(deltas[2], "x-inc70")
	b.ReportMetric(deltas[3], "x-bigcells")
}

func ratio(n, base int) float64 {
	return float64(n) / float64(base)
}

// BenchmarkGenerateDataset measures end-to-end synthesis of the
// calibrated national dataset.
func BenchmarkGenerateDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateDataset(context.Background(), WithSeed(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetAssessment evaluates the Gen1/Gen2 fleets against the
// sizing requirement (extension FLEET).
func BenchmarkFleetAssessment(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r FleetsResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.AssessFleets(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Gen2.EquivalentSatellites), "gen2-equiv-sats")
	b.ReportMetric(r.Gen2.Rows[1].CoverageRatio, "gen2-cover-s2")
}

// BenchmarkRefinedAffordability runs the dispersion-refined Figure 4
// (extension REFINED).
func BenchmarkRefinedAffordability(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r RefinedFig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Fig4Refined(context.Background(), ds, 0, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Dispersed.UnaffordableFraction*100, "dispersed-pct")
	b.ReportMetric(r.LifelineAware.SubsidyUsableFraction*100, "rescued-pct")
}

// BenchmarkBusyHour runs the diurnal/stagger analysis (extension TRAFFIC).
func BenchmarkBusyHour(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r BusyHourResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.BusyHour(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Stagger.FootprintPeakToMean, "footprint-peak-to-mean")
	b.ReportMetric(r.MedianCellMbps, "median-cell-mbps")
}

// BenchmarkEconomics prices the sizing results (extension ECON).
func BenchmarkEconomics(b *testing.B) {
	ds := benchDataset(b)
	m := NewModel()
	var r EconomicsResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = m.Economics(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Scenarios[1].MonthlyPerLocationUSD, "s2-usd-loc-month")
}

// BenchmarkStateRollup computes the per-state report (extension STATES).
func BenchmarkStateRollup(b *testing.B) {
	ds := benchDataset(b)
	var n int
	for i := 0; i < b.N; i++ {
		profiles, err := staterollup.ByState(staterollup.DefaultConfig(), ds.Cells, ds.Incomes)
		if err != nil {
			b.Fatal(err)
		}
		n = len(profiles)
	}
	b.ReportMetric(float64(n), "states")
}
