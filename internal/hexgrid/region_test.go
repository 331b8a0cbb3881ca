package hexgrid

import (
	"math"
	"testing"

	"leodivide/internal/geo"
)

func TestBoundary(t *testing.T) {
	id := LatLngToCell(geo.LatLng{Lat: 40, Lng: -100}, 3)
	b := id.Boundary()
	if len(b) != 6 {
		t.Fatalf("hexagon boundary has %d vertices", len(b))
	}
	center := id.LatLng()
	spacing := id.latticeSpacing()
	for _, v := range b {
		d := geo.AngularDistance(center, v)
		// Voronoi vertices sit near one circumradius (~0.577 spacings)
		// from the center.
		if d < 0.3*spacing || d > 0.9*spacing {
			t.Errorf("boundary vertex at %.3f spacings", d/spacing)
		}
	}
	// The center must be inside its own boundary polygon.
	if !(geo.Polygon{Vertices: b}).Contains(center) {
		t.Error("cell center outside its boundary")
	}
}

func TestBoundaryPentagon(t *testing.T) {
	// Find a pentagon cell at res 1 and check 5 vertices.
	var pent CellID
	ForEachCell(1, func(id CellID) {
		if pent == 0 && len(id.Neighbors()) == 5 {
			pent = id
		}
	})
	if pent == 0 {
		t.Fatal("no pentagon found")
	}
	if got := len(pent.Boundary()); got != 5 {
		t.Errorf("pentagon boundary has %d vertices", got)
	}
}

func TestCellAreasSumToSphere(t *testing.T) {
	// At res 1 the polygon areas must tile the sphere (within the
	// centroid-vertex approximation).
	total := 0.0
	ForEachCell(1, func(id CellID) {
		total += id.AreaKm2()
	})
	if math.Abs(total-geo.EarthAreaKm2)/geo.EarthAreaKm2 > 0.05 {
		t.Errorf("cell areas sum to %v, want ≈%v", total, geo.EarthAreaKm2)
	}
}

func TestCellAreaNearAverage(t *testing.T) {
	id := LatLngToCell(geo.LatLng{Lat: 40, Lng: -100}, 4)
	avg := Resolution(4).AvgCellAreaKm2()
	got := id.AreaKm2()
	if got < 0.6*avg || got > 1.5*avg {
		t.Errorf("cell area %v far from average %v", got, avg)
	}
}

func TestRectFill(t *testing.T) {
	// Colorado's frame: ~4.0x7.1 degrees at res 4 (~1770 km² cells).
	cells := RectFill(37, 41, -109, -102, 4)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	// Expected count ≈ area / avg cell area.
	area := geo.RectArea(37, 41, -109, -102)
	want := area / Resolution(4).AvgCellAreaKm2()
	if math.Abs(float64(len(cells))-want)/want > 0.2 {
		t.Errorf("RectFill returned %d cells, want ≈%.0f", len(cells), want)
	}
	seen := map[CellID]bool{}
	for i, id := range cells {
		if seen[id] {
			t.Fatal("duplicate cell")
		}
		seen[id] = true
		if i > 0 && cells[i] < cells[i-1] {
			t.Fatal("not sorted")
		}
		c := id.LatLng()
		if c.Lat < 37 || c.Lat > 41 || c.Lng < -109 || c.Lng > -102 {
			t.Fatalf("cell center %v outside rect", c)
		}
	}
	if got := RectFill(41, 37, -109, -102, 4); got != nil {
		t.Error("inverted rect should return nil")
	}
	if got := RectFill(37, 41, -109, -102, Resolution(-1)); got != nil {
		t.Error("invalid resolution should return nil")
	}
}
