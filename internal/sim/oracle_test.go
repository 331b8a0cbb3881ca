package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
	"leodivide/internal/region"
	"leodivide/internal/usgeo"
)

// The legacy oracle: the simulator's original visibility sweep and
// gateway filter, kept verbatim. Every candidate costs a trigonometric
// distance and elevation evaluation, and the scan walks
// ±ceil((cov+6°)/6°) bucket rows. The current sweep reproduces it
// exactly wherever its window is sound — every US cell for every
// constellation here. Its window is not a superset within ~12° of a
// pole: rows poleward of the cell are scanned over a longitude span
// sized for the row, so a polar orbit's satellites on the far side of
// the pole are missed. There the current sweep finds more, and the
// all-pairs oracle (exactVisibleSats) confirms the extra ones are real.

// refVisibleSats returns, per demand cell, the indices of satellites above
// the elevation mask, using a latitude/longitude bucket index to avoid
// the all-pairs scan. The bucket index is built once serially; the
// per-cell scans fan out over workers, each writing its own slot.
func refVisibleSats(ctx context.Context, sats []satPos, cells []demand.Cell, minElev float64, workers int) ([][]int, error) {
	// The bucket scan reach must cover the widest footprint present.
	covAngle := 0.0
	for _, s := range sats {
		if s.covAngle > covAngle {
			covAngle = s.covAngle
		}
	}
	const bucketDeg = 6.0
	latBuckets := int(math.Ceil(180 / bucketDeg))
	lngBuckets := int(math.Ceil(360 / bucketDeg))
	index := make(map[int][]int)
	key := func(lat, lng float64) int {
		bi := int((lat + 90) / bucketDeg)
		bj := int(math.Mod(lng+360, 360) / bucketDeg)
		if bi >= latBuckets {
			bi = latBuckets - 1
		}
		if bj >= lngBuckets {
			bj = lngBuckets - 1
		}
		return bi*lngBuckets + bj
	}
	for i, s := range sats {
		k := key(s.sub.Lat, s.sub.Lng)
		index[k] = append(index[k], i)
	}
	reachDeg := geo.Degrees(covAngle) + bucketDeg
	steps := int(math.Ceil(reachDeg / bucketDeg))
	out := make([][]int, len(cells))
	err := par.ForEach(ctx, workers, len(cells), func(ci int) error {
		c := cells[ci]
		var vis []int
		baseLat := c.Center.Lat
		for di := -steps; di <= steps; di++ {
			lat := baseLat + float64(di)*bucketDeg
			if lat < -90 || lat > 90 {
				continue
			}
			// Longitude buckets shrink with latitude; widen the scan.
			lngStep := bucketDeg
			cosLat := math.Cos(geo.Radians(lat))
			span := steps
			if cosLat > 0.05 {
				span = int(math.Ceil(reachDeg / (bucketDeg * cosLat)))
			} else {
				span = lngBuckets / 2
			}
			for dj := -span; dj <= span; dj++ {
				lng := c.Center.Lng + float64(dj)*lngStep
				for _, si := range index[key(lat, lng)] {
					if geo.AngularDistance(c.Center, sats[si].sub) <= sats[si].covAngle {
						if orbit.ElevationDeg(sats[si].ecef, c.Center) >= minElev {
							vis = append(vis, si)
						}
					}
				}
			}
		}
		sort.Ints(vis)
		vis = refDedupe(vis)
		out[ci] = vis
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func refDedupe(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// refFilterByGateway drops satellites without a gateway in view from every
// cell's visibility list when bent-pipe mode is on.
func refFilterByGateway(cfg Config, sats []satPos, visible [][]int) [][]int {
	if !cfg.RequireGatewayVisibility || len(cfg.Gateways) == 0 {
		return visible
	}
	mask := cfg.GatewayElevationDeg
	if mask <= 0 {
		mask = 10
	}
	ok := make([]bool, len(sats))
	for i, s := range sats {
		for _, gw := range cfg.Gateways {
			if orbit.ElevationDeg(s.ecef, gw) >= mask {
				ok[i] = true
				break
			}
		}
	}
	out := make([][]int, len(visible))
	for ci, vis := range visible {
		kept := vis[:0]
		for _, si := range vis {
			if ok[si] {
				kept = append(kept, si)
			}
		}
		out[ci] = kept
	}
	return out
}

// smallUS generates the US map at scale 0.05, seed 1, once per test
// binary.
var smallUS = sync.OnceValues(func() ([]demand.Cell, error) {
	r, ok := region.ByName(region.DefaultKey)
	if !ok {
		panic("default region missing")
	}
	out, err := r.Generate(context.Background(), region.GenConfig{Seed: 1, Scale: 0.05})
	return out.Cells, err
})

func smallUSCells(t *testing.T) []demand.Cell {
	t.Helper()
	cells, err := smallUS()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// extremeCells places cells where bucket scans are easiest to get
// wrong: at and next to both poles, on both sides of the antimeridian,
// across the southern hemisphere, and at Alaska's latitudes.
func extremeCells() []demand.Cell {
	var pts []geo.LatLng
	for _, lat := range []float64{90, 89.9, 88, 84.01, 83.99, 78, 71.4, 66, 60, 53, 45, 30, 6, 0.001, 0} {
		for _, sign := range []float64{1, -1} {
			for _, lng := range []float64{-180, -179.999, -177, -135, -90, -45.5, 0, 3, 45, 90, 135, 177, 179.999, 180} {
				pts = append(pts, geo.LatLng{Lat: sign * lat, Lng: lng})
			}
		}
	}
	cells := make([]demand.Cell, len(pts))
	for i, p := range pts {
		cells[i] = demand.Cell{ID: hexgrid.CellID(i + 1), Locations: 1 + i%900, Center: p}
	}
	return cells
}

// exactVisibleSats applies the legacy exact tests to every
// satellite/cell pair, with no bucket index: the ground truth.
func exactVisibleSats(sats []satPos, cells []demand.Cell, minElev float64) [][]int {
	out := make([][]int, len(cells))
	for ci, c := range cells {
		for si, s := range sats {
			if geo.AngularDistance(c.Center, s.sub) <= s.covAngle && orbit.ElevationDeg(s.ecef, c.Center) >= minElev {
				out[ci] = append(out[ci], si)
			}
		}
	}
	return out
}

// oracleFleets are the constellations the oracle sweeps: Starlink's
// principal shell (nil: DefaultConfig's Shell), the multi-altitude Gen1
// fleet (its shells have different coverage angles, two of them polar)
// and OneWeb's polar fleet.
func oracleFleets() map[string]*constellation.Fleet {
	gen1 := constellation.StarlinkGen1()
	oneweb := constellation.OneWebSystem().Fleet
	return map[string]*constellation.Fleet{"shell1": nil, "gen1": &gen1, "oneweb": &oneweb}
}

// bentPipe returns cfg in bent-pipe mode through the US gateway sites.
func bentPipe(cfg Config) Config {
	cfg.RequireGatewayVisibility = true
	for _, gw := range usgeo.GatewaySites() {
		cfg.Gateways = append(cfg.Gateways, gw.Pos)
	}
	return cfg
}

// TestVisibleSatsMatchesReference checks the sweep cell by cell, free
// and bent-pipe, against the legacy sweep at every epoch (equal on the
// US map, a superset at the poles) and against the all-pairs oracle at
// the first and last epoch.
func TestVisibleSatsMatchesReference(t *testing.T) {
	datasets := map[string][]demand.Cell{
		"us-0.05": smallUSCells(t),
		"extreme": extremeCells(),
	}
	for fname, fleet := range oracleFleets() {
		for dname, cells := range datasets {
			t.Run(fname+"/"+dname, func(t *testing.T) {
				t.Parallel()
				free := DefaultConfig()
				free.Fleet = fleet
				bent := bentPipe(free)
				epochs := free.Epochs
				if testing.Short() {
					epochs = 3
				}
				ctx := context.Background()
				rFree, err := newRunner(free, cells)
				if err != nil {
					t.Fatal(err)
				}
				rBent, err := newRunner(bent, cells)
				if err != nil {
					t.Fatal(err)
				}
				visible, polarMisses := 0, 0
				check := func(e int, got, legacy, exact [][]int) {
					t.Helper()
					for ci, c := range cells {
						if exact != nil && !slices.Equal(got[ci], exact[ci]) {
							t.Fatalf("epoch %d cell %v: got %v, all-pairs oracle %v", e, c.Center, got[ci], exact[ci])
						}
						visible += len(got[ci])
						if slices.Equal(got[ci], legacy[ci]) {
							continue
						}
						for _, si := range legacy[ci] {
							if !slices.Contains(got[ci], si) {
								t.Fatalf("epoch %d cell %v: satellite %d missing; got %v, legacy %v", e, c.Center, si, got[ci], legacy[ci])
							}
						}
						if math.Abs(c.Center.Lat) < 75 {
							t.Fatalf("epoch %d cell %v: got %v, legacy %v", e, c.Center, got[ci], legacy[ci])
						}
						polarMisses++
					}
				}
				for e := 0; e < epochs; e++ {
					tsec := free.StepSeconds * float64(e)
					snap, err := rFree.snapshot(ctx, tsec)
					if err != nil {
						t.Fatal(err)
					}
					legacy, err := refVisibleSats(ctx, snap, cells, free.MinElevationDeg, free.Parallelism)
					if err != nil {
						t.Fatal(err)
					}
					var exact [][]int
					if e == 0 || e == epochs-1 {
						exact = exactVisibleSats(snap, cells, free.MinElevationDeg)
					}
					got, err := rFree.visibleSats(ctx, snap)
					if err != nil {
						t.Fatal(err)
					}
					check(e, got, legacy, exact)

					// Bent-pipe: the same geometry, filtered by gateway.
					// The reference filter works in place, so filter copies.
					snap, err = rBent.snapshot(ctx, tsec)
					if err != nil {
						t.Fatal(err)
					}
					got, err = rBent.visibleSats(ctx, snap)
					if err != nil {
						t.Fatal(err)
					}
					if exact != nil {
						exact = refFilterByGateway(bent, snap, cloneLists(exact))
					}
					check(e, got, refFilterByGateway(bent, snap, cloneLists(legacy)), exact)
				}
				if visible == 0 {
					t.Fatal("no satellite visible from any cell: the comparison proves nothing")
				}
				t.Logf("%d polar cell-epochs where the legacy sweep missed satellites", polarMisses)
			})
		}
	}
}

func cloneLists(lists [][]int) [][]int {
	out := make([][]int, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// TestScanWindowIsSuperset checks the window's superset argument
// directly: every point within the reach of a cell falls in a bucket the
// cell scans, including points across a pole or the antimeridian.
func TestScanWindowIsSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const reachDeg = 15.5 // wider than any footprint the tests propagate
	inWindow := func(w window, row, col int32) bool {
		if row < w.row0 || row > w.row1 {
			return false
		}
		return (col-w.col0+lngBuckets)%lngBuckets < w.cols
	}
	centers := []geo.LatLng{{Lat: 90}, {Lat: -90}, {Lat: 71.4, Lng: -180}, {Lat: 52, Lng: 179.99}, {Lat: -74.5, Lng: 180}}
	for i := 0; i < 2000; i++ {
		centers = append(centers, geo.LatLng{Lat: -90 + 180*rng.Float64(), Lng: -180 + 360*rng.Float64()})
	}
	for _, c := range centers {
		w := scanWindow(c, reachDeg+windowPadDeg)
		for k := 0; k < 200; k++ {
			// A point at a random bearing, at most reachDeg away; every
			// fifth one on the rim.
			dist := reachDeg * rng.Float64()
			if k%5 == 0 {
				dist = reachDeg * (1 - 1e-12)
			}
			p := geo.Destination(c, 360*rng.Float64(), geo.Radians(dist)*geo.EarthRadiusKm)
			if !inWindow(w, latRow(p.Lat), lngCol(p.Lng)) {
				t.Fatalf("point %v (%.4f° from %v) lies outside window %+v", p, geo.Degrees(geo.AngularDistance(c, p)), c, w)
			}
		}
	}
}
