package hexgrid

import (
	"fmt"
	"math"
	"testing"

	"leodivide/internal/geo"
)

// box is a closed lat/lng rectangle in the argument order of
// ForEachCellOnFaceInBox.
type box struct {
	name                           string
	latMin, latMax, lngMin, lngMax float64
}

func (b box) contains(p geo.LatLng) bool {
	return !(p.Lat < b.latMin || p.Lat > b.latMax || p.Lng < b.lngMin || p.Lng > b.lngMax)
}

type centeredCell struct {
	id CellID
	p  geo.LatLng
}

// faceCells is the oracle's input: every cell ForEachCellOnFace visits,
// in visit order, with its center.
func faceCells(r Resolution, face int) []centeredCell {
	var out []centeredCell
	ForEachCellOnFace(r, face, func(id CellID) {
		out = append(out, centeredCell{id, id.LatLng()})
	})
	return out
}

// checkBoxWalk compares the pruned walk against the full face walk
// plus the exact box test: same cells, same order, same centers (bit
// for bit). It returns the number of cells kept.
func checkBoxWalk(t *testing.T, r Resolution, face int, all []centeredCell, b box) int {
	t.Helper()
	var want []centeredCell
	for _, c := range all {
		if b.contains(c.p) {
			want = append(want, c)
		}
	}
	var got []centeredCell
	ForEachCellOnFaceInBox(r, face, b.latMin, b.latMax, b.lngMin, b.lngMax, func(id CellID, p geo.LatLng) {
		got = append(got, centeredCell{id, p})
	})
	if len(got) != len(want) {
		t.Fatalf("r%d face %d box %s: walk kept %d cells, oracle %d", r, face, b.name, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.id != w.id || math.Float64bits(g.p.Lat) != math.Float64bits(w.p.Lat) ||
			math.Float64bits(g.p.Lng) != math.Float64bits(w.p.Lng) {
			t.Fatalf("r%d face %d box %s: visit %d is %v %v, oracle %v %v", r, face, b.name, k, g.id, g.p, w.id, w.p)
		}
	}
	return len(got)
}

// around returns the box of half-size h degrees around p, clipped to
// the valid coordinate range.
func around(name string, p geo.LatLng, h float64) box {
	return box{name, math.Max(p.Lat-h, -90), math.Min(p.Lat+h, 90), math.Max(p.Lng-h, -180), math.Min(p.Lng+h, 180)}
}

// oracleBoxes are the table cases: the production boxes, the globe's
// awkward places (face edges, pentagon vertices, poles, the
// antimeridian), degenerate and wide boxes.
func oracleBoxes(r Resolution) []box {
	boxes := []box{
		{"us", 18, 67, -169, -66},
		{"brazil-rural", -25, -3, -61, -40},
		{"taipei-dense", 24.4, 25.6, 121.0, 122.2},
		{"north-cap", 75, 90, -180, 180},
		{"south-pole-lune", -90, -70, 10, 40},
		{"north-pole-lune", 60, 90, -100, -20},
		{"touch-east-180", 40, 60, 170, 180},
		{"touch-west-180", -20, 5, -180, -165},
		{"antimeridian-sliver", -60, 60, 179.5, 180},
		{"exactly-180-wide", -30, 30, -90, 90},
		{"wider-than-180", -10, 50, -170, 60},
		{"globe", -90, 90, -180, 180},
		{"inverted", 10, -10, 20, -20},
		{"equator-band", -0.5, 0.5, -180, 180},
	}
	for v, p := range icoVerts {
		boxes = append(boxes, around(fmt.Sprintf("vertex-%d", v), p.LatLng(), 4))
	}
	for f := range faceCorner {
		mid := faceCorner[f][0].Add(faceCorner[f][1]).Unit().LatLng()
		boxes = append(boxes, around(fmt.Sprintf("edge-%d", f), mid, 2))
	}
	// Degenerate boxes on one cell center: a 1e-9°-thin box and a
	// zero-area one. The margins must not drop the cell on the edge.
	c := LatLngToCell(geo.LatLng{Lat: 39.7, Lng: -105}, r).LatLng()
	boxes = append(boxes,
		box{"thin", c.Lat, c.Lat + 1e-9, c.Lng - 1e-9, c.Lng},
		box{"point", c.Lat, c.Lat, c.Lng, c.Lng},
	)
	return boxes
}

func TestForEachCellOnFaceInBoxMatchesOracle(t *testing.T) {
	for r := MinResolution; r <= 5; r++ {
		boxes := oracleBoxes(r)
		kept := make([]int, len(boxes))
		for face := 0; face < 20; face++ {
			all := faceCells(r, face)
			for k, b := range boxes {
				kept[k] += checkBoxWalk(t, r, face, all, b)
			}
		}
		for k, b := range boxes {
			switch b.name {
			case "globe":
				if kept[k] != r.NumCells() {
					t.Errorf("r%d: globe box kept %d cells, want %d", r, kept[k], r.NumCells())
				}
			case "thin", "point":
				if kept[k] != 1 {
					t.Errorf("r%d: %s box on a cell center kept %d cells, want 1", r, b.name, kept[k])
				}
			}
		}
	}
}

// FuzzCellsInBox: for any valid box at a coarse resolution, the pruned
// walk must agree with the full face walk plus the exact box test.
func FuzzCellsInBox(f *testing.F) {
	f.Add(18.0, 67.0, -169.0, -66.0, uint8(3), uint8(0))
	f.Add(-90.0, -80.0, 170.0, 180.0, uint8(2), uint8(15))
	f.Add(10.0, 10.0, -180.0, 180.0, uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, lat0, lat1, lng0, lng1 float64, res, face uint8) {
		for _, v := range []float64{lat0, lat1} {
			if !(v >= -90 && v <= 90) {
				return
			}
		}
		for _, v := range []float64{lng0, lng1} {
			if !(v >= -180 && v <= 180) {
				return
			}
		}
		b := box{"fuzz", math.Min(lat0, lat1), math.Max(lat0, lat1), math.Min(lng0, lng1), math.Max(lng0, lng1)}
		r, fc := Resolution(res%4), int(face%20)
		checkBoxWalk(t, r, fc, faceCells(r, fc), b)
	})
}

// TestRectFillSortedAcrossFaces: face-major (i, j) order is CellID
// order, so RectFill needs no sort even when its box spans many faces.
func TestRectFillSortedAcrossFaces(t *testing.T) {
	for r := MinResolution; r <= 3; r++ {
		cells := RectFill(-90, 90, -180, 180, r)
		if len(cells) != r.NumCells() {
			t.Fatalf("r%d: globe RectFill has %d cells, want %d", r, len(cells), r.NumCells())
		}
		for i := 1; i < len(cells); i++ {
			if cells[i] <= cells[i-1] {
				t.Fatalf("r%d: RectFill not strictly ascending at %d: %v after %v", r, i, cells[i], cells[i-1])
			}
		}
	}
}

// TestClipRowIsTight: the clip keeps exactly the j whose plane test
// passes, so the walk does not silently degrade to a full row scan. Rows
// parallel to a meridian plane (beta == 0) occur on the faces with an
// edge along the z axis and must be dropped whole when outside.
func TestClipRowIsTight(t *testing.T) {
	r := Resolution(3)
	n := r.Subdivisions()
	tol := boxMargin * float64(n)
	parallel := 0
	for face := 0; face < 20; face++ {
		c := faceCorner[face]
		d := c[1].Sub(c[2])
		for deg := -180.0; deg < 180; deg += 7.5 {
			a := geo.Radians(deg)
			for _, nv := range []geo.Vec3{{X: -math.Sin(a), Y: math.Cos(a)}, {X: math.Sin(a), Y: -math.Cos(a)}} {
				if d.Dot(nv) == 0 {
					parallel++
				}
				for i := 0; i <= n; i++ {
					row := c[0].Scale(float64(i)).Add(c[2].Scale(float64(n - i)))
					jLo, jHi := clipRow(row, d, nv, tol, 0, n-i)
					for j := 0; j <= n-i; j++ {
						v := row.Dot(nv) + float64(j)*d.Dot(nv)
						if math.Abs(v+tol) < 1e-9 {
							continue // on the clip boundary itself
						}
						if pass, kept := v >= -tol, j >= jLo && j <= jHi; pass != kept {
							t.Fatalf("face %d lng %v row %d j %d: plane value %v, clip [%d, %d]", face, deg, i, j, v, jLo, jHi)
						}
					}
				}
			}
		}
	}
	if parallel == 0 {
		t.Fatal("no row parallel to a meridian plane was exercised")
	}
}
