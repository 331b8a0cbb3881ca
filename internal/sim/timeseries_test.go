package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
)

func TestRunSeries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shell = smallShell(396, 18)
	cfg.Epochs = 5
	s, err := RunSeries(context.Background(), cfg, testCells())
	if err != nil {
		t.Fatal(err)
	}
	series := s.Epochs
	if len(series) != 5 {
		t.Fatalf("got %d epochs", len(series))
	}
	for i, e := range series {
		if e.CoveredFraction < 0 || e.CoveredFraction > 1 {
			t.Errorf("epoch %d: covered %v", i, e.CoveredFraction)
		}
		if e.ServedFraction > e.CoveredFraction+1e-9 {
			t.Errorf("epoch %d: served > covered", i)
		}
		if e.BeamUtilization < 0 || e.BeamUtilization > 1 {
			t.Errorf("epoch %d: utilization %v", i, e.BeamUtilization)
		}
		if i == 0 && e.Handovers != 0 {
			t.Errorf("first epoch has %d handovers", e.Handovers)
		}
		if e.TimeSec != cfg.StepSeconds*float64(i) {
			t.Errorf("epoch %d: time %v", i, e.TimeSec)
		}
	}
	// With 6-minute steps on a 96-minute orbit, serving satellites
	// change: some handovers must appear after the first epoch.
	total := 0
	for _, e := range series[1:] {
		total += e.Handovers
	}
	if total == 0 {
		t.Error("no handovers across 30 minutes of LEO motion")
	}
}

func TestRunSeriesConsistentWithRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shell = smallShell(396, 18)
	cfg.Epochs = 3
	series, err := RunSeries(context.Background(), cfg, testCells())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg, testCells())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series.Summary(), res) {
		t.Errorf("Summary %+v != Run %+v", series.Summary(), res)
	}
	mean := 0.0
	for _, e := range series.Epochs {
		mean += e.ServedFraction
	}
	mean /= float64(len(series.Epochs))
	if diff := mean - res.MeanServedFraction; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("series mean served %v != Run mean %v", mean, res.MeanServedFraction)
	}
}

func TestRunSeriesValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 0
	if _, err := RunSeries(context.Background(), cfg, testCells()); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := RunSeries(context.Background(), DefaultConfig(), nil); err == nil {
		t.Error("no cells should fail")
	}
}

// TestCoverageByLatitude checks Series.Bands, the first epoch's
// latitude bands: they partition the cells, ascend, agree with the
// first epoch's covered fraction, and show the inclined shell's
// coverage cliff.
func TestCoverageByLatitude(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shell = smallShell(396, 18)
	cfg.Epochs = 2
	// Cells from 28N to 70N: the 53° shell covers the south, not the
	// far north. The cells at exactly ±10° open the bands [10, 20) and
	// [-10, 0).
	var cells []demand.Cell
	id := 1
	add := func(lat, lng float64) {
		cells = append(cells, demand.Cell{
			ID: hexgrid.CellID(id), Locations: 100,
			Center: geo.LatLng{Lat: lat, Lng: lng},
		})
		id++
	}
	for lat := 28.0; lat <= 70; lat += 2 {
		for lng := -150.0; lng <= -80; lng += 10 {
			add(lat, lng)
		}
	}
	add(10, -80)
	add(-10, -60)
	s, err := RunSeries(context.Background(), cfg, cells)
	if err != nil {
		t.Fatal(err)
	}
	bands := s.Bands
	if len(bands) < 6 {
		t.Fatalf("got %d bands", len(bands))
	}
	totalCells, totalCovered := 0, 0
	byLo := map[float64]LatitudeBand{}
	for i, b := range bands {
		totalCells += b.Cells
		totalCovered += int(math.Round(b.CoveredFraction * float64(b.Cells)))
		byLo[b.LatLoDeg] = b
		if b.CoveredFraction < 0 || b.CoveredFraction > 1 {
			t.Errorf("band %d fraction %v", i, b.CoveredFraction)
		}
		if b.LatHiDeg != b.LatLoDeg+10 {
			t.Errorf("band %d spans [%v, %v), want 10°", i, b.LatLoDeg, b.LatHiDeg)
		}
		if i > 0 && b.LatLoDeg <= bands[i-1].LatLoDeg {
			t.Error("bands not sorted")
		}
	}
	if totalCells != len(cells) {
		t.Errorf("bands cover %d cells, want %d", totalCells, len(cells))
	}
	if got, want := float64(totalCovered)/float64(len(cells)), s.Epochs[0].CoveredFraction; got != want {
		t.Errorf("bands cover %v of cells, first epoch %v", got, want)
	}
	for lo, want := range map[float64]int{10: 1, -10: 1, 0: 0, -20: 0} {
		if got := byLo[lo].Cells; got != want {
			t.Errorf("band [%v, %v) holds %d cells, want %d", lo, lo+10, got, want)
		}
	}
	// The 60-70N band must be far worse covered than the 30-40N band.
	south, okS := byLo[30]
	north, okN := byLo[60]
	if !okS || !okN {
		t.Fatal("expected bands missing")
	}
	if north.CoveredFraction >= south.CoveredFraction {
		t.Errorf("no coverage cliff: 30N=%v 60N=%v", south.CoveredFraction, north.CoveredFraction)
	}
}
