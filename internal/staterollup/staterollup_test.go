package staterollup

import (
	"context"

	"testing"

	"leodivide/internal/bdc"
	"leodivide/internal/census"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
)

func testData(t *testing.T) ([]demand.Cell, *census.Table) {
	t.Helper()
	cfg := bdc.DefaultGenConfig()
	cfg.TotalLocations = 120000
	cfg.Peaks = []bdc.PeakCell{
		{Locations: 4000, Anchor: geo.LatLng{Lat: 35.5, Lng: -106.3}},
	}
	cells, err := bdc.GenerateCells(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := demand.NewDistribution(cells)
	if err != nil {
		t.Fatal(err)
	}
	weights := dist.CountyWeights()
	cw := make([]census.CountyWeight, 0, len(weights))
	for f, w := range weights {
		cw = append(cw, census.CountyWeight{FIPS: f, Weight: float64(w), PovertyRank: float64(len(f) % 7)})
	}
	table, err := census.AssignIncomes(cw, census.DefaultIncomeAnchors())
	if err != nil {
		t.Fatal(err)
	}
	return cells, table
}

func TestByState(t *testing.T) {
	cells, incomes := testData(t)
	profiles, err := ByState(DefaultConfig(), cells, incomes)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) < 40 {
		t.Fatalf("only %d states profiled", len(profiles))
	}
	totalLocs := 0
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Abbr] {
			t.Fatalf("state %s profiled twice", p.Abbr)
		}
		seen[p.Abbr] = true
		totalLocs += p.Locations
		if p.Locations <= 0 || p.Cells <= 0 {
			t.Errorf("%s: empty profile %+v", p.Abbr, p)
		}
		if p.PeakCellLocations < p.MedianCellLocations {
			t.Errorf("%s: peak below median", p.Abbr)
		}
		if p.RequiredOversub < 1 {
			t.Errorf("%s: oversubscription below 1", p.Abbr)
		}
		if p.UnaffordableFraction < 0 || p.UnaffordableFraction > 1 {
			t.Errorf("%s: unaffordable fraction %v", p.Abbr, p.UnaffordableFraction)
		}
	}
	// Sorted by locations descending.
	for i := 1; i < len(profiles); i++ {
		if profiles[i].Locations > profiles[i-1].Locations {
			t.Fatal("profiles not sorted")
		}
	}
	// The rollup loses only cells outside all state frames.
	if totalLocs < 110000 {
		t.Errorf("state rollup covers %d of 120000 locations", totalLocs)
	}
	// The NM peak cell appears in New Mexico's profile.
	for _, p := range profiles {
		if p.Abbr == "NM" && p.PeakCellLocations != 4000 {
			t.Errorf("NM peak = %d, want 4000", p.PeakCellLocations)
		}
	}
}

func TestTopStressed(t *testing.T) {
	cells, incomes := testData(t)
	profiles, err := ByState(DefaultConfig(), cells, incomes)
	if err != nil {
		t.Fatal(err)
	}
	top := TopStressed(profiles, 5)
	if len(top) != 5 {
		t.Fatalf("got %d top states", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].RequiredOversub > top[i-1].RequiredOversub {
			t.Fatal("top stressed not sorted")
		}
	}
	// The state holding the peak cell must lead.
	if top[0].Abbr != "NM" {
		t.Errorf("most stressed state = %s, want NM", top[0].Abbr)
	}
	if got := TopStressed(profiles, 1000); len(got) != len(profiles) {
		t.Errorf("over-long top list = %d", len(got))
	}
}

func TestByStateWithoutIncomes(t *testing.T) {
	cells, _ := testData(t)
	profiles, err := ByState(DefaultConfig(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if p.UnaffordableFraction != 0 {
			t.Errorf("%s: affordability computed without incomes", p.Abbr)
		}
	}
}
