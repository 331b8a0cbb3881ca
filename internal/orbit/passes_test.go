package orbit

import (
	"math"
	"testing"

	"leodivide/internal/geo"
)

func TestPasses(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 100, PhaseDeg: 0}
	ground := geo.LatLng{Lat: 40, Lng: -100}
	// One day sweeps the full longitude range under the orbit, so a
	// 10°-mask coverage circle (diameter ≈30° of longitude at 40°N)
	// must be crossed several times.
	passes, err := o.Passes(ground, 10, 24*3600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) == 0 {
		t.Fatal("no passes in 24 hours over a mid-latitude point")
	}
	for i, p := range passes {
		if p.EndSec <= p.StartSec {
			t.Errorf("pass %d: inverted interval", i)
		}
		// A 550 km pass above a 10° mask lasts at most ~8 minutes.
		if p.Duration() > 800 {
			t.Errorf("pass %d: implausible duration %v s", i, p.Duration())
		}
		if p.MaxElevationDeg < 10 || p.MaxElevationDeg > 90 {
			t.Errorf("pass %d: max elevation %v", i, p.MaxElevationDeg)
		}
		if p.MaxElevationSec < p.StartSec-1 || p.MaxElevationSec > p.EndSec+1 {
			t.Errorf("pass %d: culmination outside pass", i)
		}
		if i > 0 && p.StartSec <= passes[i-1].EndSec {
			t.Errorf("pass %d overlaps previous", i)
		}
		// Elevation at the refined endpoints is near the mask (skip a
		// pass truncated by the horizon).
		if p.StartSec > 0 {
			el := ElevationDeg(ECIToECEF(o.PositionECI(p.StartSec), p.StartSec), ground)
			if math.Abs(el-10) > 0.5 {
				t.Errorf("pass %d: start elevation %v, want ≈10", i, el)
			}
		}
	}
}

func TestPassesValidation(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53}
	g := geo.LatLng{Lat: 40, Lng: -100}
	if _, err := o.Passes(g, 25, 0, 10); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := o.Passes(g, 95, 3600, 10); err == nil {
		t.Error("bad mask should fail")
	}
}

func TestPassesNoneAboveInclinationReach(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53}
	// 75°N is far beyond a 53° shell's coverage.
	passes, err := o.Passes(geo.LatLng{Lat: 75, Lng: 0}, 25, 3*3600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) != 0 {
		t.Errorf("got %d passes at 75N", len(passes))
	}
}

func TestGroundTrack(t *testing.T) {
	o := CircularOrbit{AltitudeKm: 550, InclinationDeg: 53}
	maxLat := 0.0
	for tt := 0.0; tt <= o.PeriodSeconds(); tt += 30 {
		if lat := math.Abs(o.SubsatellitePoint(tt).Lat); lat > maxLat {
			maxLat = lat
		}
	}
	// Over one period the track reaches (nearly) the inclination.
	if maxLat < 52 || maxLat > 53.01 {
		t.Errorf("track max |lat| = %v, want ≈53", maxLat)
	}
}

func TestGroundCoverage(t *testing.T) {
	w := StarlinkShell1()
	stats, err := w.GroundCoverage(geo.LatLng{Lat: 40, Lng: -100}, 25, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutageFraction > 0.05 {
		t.Errorf("outage fraction = %v at 40N under the full shell", stats.OutageFraction)
	}
	if stats.VisibleMean < 5 {
		t.Errorf("mean visible = %v, want ≈10+", stats.VisibleMean)
	}
	if stats.VisibleMin > stats.VisibleMax {
		t.Error("min exceeds max")
	}
	if stats.MeanBestElevationDeg <= 25 {
		t.Errorf("best elevation %v should exceed the mask", stats.MeanBestElevationDeg)
	}

	// Far north: total outage.
	north, err := w.GroundCoverage(geo.LatLng{Lat: 75, Lng: 0}, 25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if north.OutageFraction != 1 {
		t.Errorf("75N outage = %v, want 1", north.OutageFraction)
	}

	bad := w
	bad.Total = 7
	if _, err := bad.GroundCoverage(geo.LatLng{}, 25, 4); err == nil {
		t.Error("invalid shell should fail")
	}
}
