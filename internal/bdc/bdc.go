// Package bdc is the synthetic Broadband Data Collection: a stand-in
// for the FCC National Broadband Map the paper analyses. It generates
// un(der)served broadband locations across the United States with a
// per-cell density distribution calibrated to every statistic the paper
// publishes about the real data, and provides a BDC-style CSV codec so
// datasets can be written, exchanged and re-read exactly as a real
// National Broadband Map extract would be.
//
// Calibration anchors (see DESIGN.md §5): ~4.672M total un(der)served
// locations; per-cell distribution with p90 = 552, p99 = 1437; exactly
// five cells above the 3,460-location 20:1 threshold holding 22,428
// locations (5,128 in excess); peak cell 5,998.
package bdc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/hexgrid"
	"leodivide/internal/obs"
	"leodivide/internal/par"
	"leodivide/internal/stats"
	"leodivide/internal/usgeo"
)

// Generation observability (see internal/obs): stage durations and
// output sizes for the synthetic-dataset pipeline, recorded once per
// generation so the instruments cost nothing on the per-cell paths.
var (
	metricGenerations = obs.Default.Counter("bdc.generations")
	metricCellsOut    = obs.Default.Counter("bdc.cells_generated")
	metricGenSecs     = obs.Default.Histogram("bdc.generate.seconds", obs.DurationBuckets)
	metricSampleSecs  = obs.Default.Histogram("bdc.sample_sites.seconds", obs.DurationBuckets)
	metricGridSecs    = obs.Default.Histogram("bdc.us_cells.seconds", obs.DurationBuckets)
)

// QuantileAnchor pins the body-cell location-count quantile function.
type QuantileAnchor struct {
	Q         float64
	Locations float64
}

// PeakCell pins one of the head cells that exceed the 20:1
// oversubscription threshold, at a fixed geographic anchor.
type PeakCell struct {
	Locations int
	Anchor    geo.LatLng
}

// GenConfig controls dataset synthesis. Obtain a calibrated baseline
// from DefaultGenConfig.
type GenConfig struct {
	// Seed drives all pseudo-randomness; equal seeds give identical
	// datasets.
	Seed int64
	// Resolution is the service-cell grid resolution.
	Resolution hexgrid.Resolution
	// TotalLocations is the national total of un(der)served locations.
	TotalLocations int
	// BodyAnchors shape the per-cell count distribution of all cells
	// below the 20:1 threshold (log-linear interpolation between
	// anchors).
	BodyAnchors []QuantileAnchor
	// Peaks are the pinned head cells.
	Peaks []PeakCell
	// Parallelism bounds the worker count for the RNG-free phases of
	// generation (grid enumeration, county resolution). 0 means one
	// worker per CPU; 1 is the serial path. The generated dataset is
	// identical at every setting: all seeded-RNG decisions run on a
	// single goroutine in a fixed order, and parallel shards are
	// collected in canonical order.
	Parallelism int
}

// DefaultGenConfig returns the paper-calibrated configuration.
//
// The five peak anchors sit in rural New Mexico, Alabama, Mississippi,
// Kentucky and Arizona; their latitudes are chosen so the 20:1-capped
// scenario binds at a slightly lower latitude (34.3°N) than the
// full-service scenario (34.8°N), reproducing the paper's observation
// that the capped deployment needs marginally more satellites.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:           1,
		Resolution:     5,
		TotalLocations: 4672000,
		BodyAnchors: []QuantileAnchor{
			{Q: 0.0, Locations: 1},
			{Q: 0.40, Locations: 20},
			{Q: 0.75, Locations: 160},
			{Q: 0.90, Locations: 552},
			{Q: 0.905, Locations: 554},
			{Q: 0.99, Locations: 1437},
			{Q: 0.995, Locations: 1450},
			// The body tops out below the 3-beam boundary (2,595 at
			// 20:1) so only the five pinned peaks drive the 4-beam
			// binding constraint, as in the paper.
			{Q: 1.0, Locations: 2500},
		},
		Peaks: []PeakCell{
			{Locations: 5998, Anchor: geo.LatLng{Lat: 35.5, Lng: -106.3}}, // NM
			{Locations: 4700, Anchor: geo.LatLng{Lat: 34.8, Lng: -87.2}},  // AL
			{Locations: 4300, Anchor: geo.LatLng{Lat: 34.3, Lng: -89.9}},  // MS
			{Locations: 3800, Anchor: geo.LatLng{Lat: 36.9, Lng: -83.1}},  // KY
			{Locations: 3630, Anchor: geo.LatLng{Lat: 34.9, Lng: -111.5}}, // AZ
		},
	}
}

// Validate reports whether the configuration is internally coherent.
func (c GenConfig) Validate() error {
	if !c.Resolution.Valid() {
		return fmt.Errorf("bdc: invalid resolution %d", c.Resolution)
	}
	if c.TotalLocations <= 0 {
		return fmt.Errorf("bdc: total locations must be positive, got %d", c.TotalLocations)
	}
	if len(c.BodyAnchors) < 2 {
		return fmt.Errorf("bdc: need at least 2 body anchors")
	}
	for i := 1; i < len(c.BodyAnchors); i++ {
		if c.BodyAnchors[i].Q <= c.BodyAnchors[i-1].Q ||
			c.BodyAnchors[i].Locations < c.BodyAnchors[i-1].Locations {
			return fmt.Errorf("bdc: body anchors must increase at index %d", i)
		}
	}
	//lint:ignore floatcmp validates exact endpoints of hand-authored config anchors, not computed floats
	if c.BodyAnchors[0].Q != 0 || c.BodyAnchors[len(c.BodyAnchors)-1].Q != 1 {
		return fmt.Errorf("bdc: body anchors must span Q=0..1")
	}
	peakSum := 0
	for _, p := range c.Peaks {
		if !p.Anchor.Valid() {
			return fmt.Errorf("bdc: invalid peak anchor %v", p.Anchor)
		}
		peakSum += p.Locations
	}
	if peakSum >= c.TotalLocations {
		return fmt.Errorf("bdc: peaks (%d) exceed total (%d)", peakSum, c.TotalLocations)
	}
	return nil
}

// bodyCurve is the body quantile function: q in [0,1] to a location
// count, interpolated log-linearly between the anchors.
func (c GenConfig) bodyCurve() stats.LogLinear {
	qs := make([]float64, len(c.BodyAnchors))
	locs := make([]float64, len(c.BodyAnchors))
	for i, a := range c.BodyAnchors {
		qs[i], locs[i] = a.Q, a.Locations
	}
	return stats.NewLogLinear(qs, locs)
}

// bodyCounts returns per-cell counts (ascending) whose sum is exactly
// target, drawn from the anchored quantile function.
func (c GenConfig) bodyCounts(target int) []int {
	curve := c.bodyCurve()
	// Cell k of n draws the curve at its midpoint quantile.
	count := func(k, n int) int {
		v := int(math.Round(curve.At((float64(k) + 0.5) / float64(n))))
		if v < 1 {
			v = 1
		}
		return v
	}
	n := bodyCellCount(target, func(n int) int {
		s := 0
		for k := 0; k < n; k++ {
			s += count(k, n)
		}
		return s
	})
	counts := make([]int, n)
	sum := 0
	for k := range counts {
		counts[k] = count(k, n)
		sum += counts[k]
	}
	// Trim the residual by decrementing (or incrementing) cells spread
	// across the ranks, preserving the anchored quantiles. The stride is
	// chosen co-prime with n so every cell is eventually visited, and a
	// full no-progress cycle terminates the loop (possible only when the
	// target is smaller than the smallest achievable sum).
	residual := sum - target
	step := 7
	for n > 0 && gcd(step, n) != 1 {
		step++
	}
	idx := n / 4
	sinceProgress := 0
	for residual != 0 && n > 0 && sinceProgress < n {
		i := idx % n
		switch {
		case residual > 0 && counts[i] > 1:
			counts[i]--
			residual--
			sinceProgress = 0
		case residual < 0:
			counts[i]++
			residual++
			sinceProgress = 0
		default:
			sinceProgress++
		}
		idx += step
	}
	sort.Ints(counts)
	return counts
}

// bodyCellCount returns the least n whose n midpoint-quantile draws
// sum to at least target. The sum grows monotonically with n, so the
// search doubles, then bisects.
func bodyCellCount(target int, sumFor func(n int) int) int {
	lo, hi := 1, 16
	for sumFor(hi) < target {
		lo = hi
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if sumFor(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GenerateCells synthesizes the national dataset at cell granularity:
// every cell's location count, county and center. This is the fast path
// the capacity model consumes; per-location records are produced by
// GenerateLocations.
//
// Generation fans out over cfg.Parallelism workers but is byte-identical
// to the serial path at every worker count (see GenConfig.Parallelism).
func GenerateCells(ctx context.Context, cfg GenConfig) (cells []demand.Cell, err error) {
	//lint:ignore detrand wall-clock feeds the generation timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.generate_cells")
	if span != nil {
		span.SetAttr(obs.Int("total_locations", int64(cfg.TotalLocations)),
			obs.Int("workers", int64(par.Workers(cfg.Parallelism))))
	}
	defer func() {
		metricGenSecs.ObserveSince(start)
		if err == nil {
			metricGenerations.Inc()
			metricCellsOut.Add(int64(len(cells)))
			span.SetAttr(obs.Int("cells", int64(len(cells))))
		}
		span.End()
	}()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pin the head cells first so body sampling can avoid them.
	used := make(map[hexgrid.CellID]bool)
	for _, p := range cfg.Peaks {
		id := hexgrid.LatLngToCell(p.Anchor, cfg.Resolution)
		if used[id] {
			return nil, fmt.Errorf("bdc: peak anchors collide in cell %v", id)
		}
		used[id] = true
		county, ok := usgeo.CountyAt(id.LatLng())
		if !ok {
			county, ok = usgeo.CountyAt(p.Anchor)
			if !ok {
				return nil, fmt.Errorf("bdc: peak anchor %v outside US frames", p.Anchor)
			}
		}
		cells = append(cells, demand.Cell{
			ID: id, Locations: p.Locations, CountyFIPS: county.FIPS, Center: id.LatLng(),
		})
	}

	peakSum := 0
	for _, p := range cfg.Peaks {
		peakSum += p.Locations
	}
	counts := cfg.bodyCounts(cfg.TotalLocations - peakSum)

	// Sample body cell sites state by state, proportional to rural
	// weight, rejecting duplicates and off-frame centers.
	sites, err := sampleSites(ctx, rng, cfg.Resolution, len(counts), used, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	if len(sites) < len(counts) {
		return nil, fmt.Errorf("bdc: sampled only %d of %d body cells", len(sites), len(counts))
	}
	// Counts are assigned to sites in shuffled order so geography and
	// density are independent.
	perm := rng.Perm(len(counts))
	for i, s := range sites {
		cells = append(cells, demand.Cell{
			ID:         s.id,
			Locations:  counts[perm[i]],
			CountyFIPS: s.countyFIPS,
			Center:     s.id.LatLng(),
		})
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	return cells, nil
}

type site struct {
	id         hexgrid.CellID
	countyFIPS string
}

// sampleSites draws n distinct grid cells across the US, weighted by
// state rural weight. All RNG decisions (pool shuffles) run serially in
// state order; only the RNG-free county resolution fans out, collected
// in the serial emission order. A shortfall returns (nil, nil) so the
// caller can report it with context.
func sampleSites(ctx context.Context, rng *rand.Rand, res hexgrid.Resolution, n int, used map[hexgrid.CellID]bool, workers int) ([]site, error) {
	//lint:ignore detrand wall-clock feeds the site-sampling timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.sample_sites")
	if span != nil {
		span.SetAttr(obs.Int("sites", int64(n)))
	}
	defer func() {
		metricSampleSecs.ObserveSince(start)
		span.End()
	}()
	states := usgeo.States()
	totalWeight := usgeo.TotalRuralWeight()
	byState, err := usCells(ctx, res, workers)
	if err != nil {
		return nil, err
	}

	// Shuffled per-state pools, minus already-used cells.
	pools := make([][]hexgrid.CellID, len(states))
	totalCapacity := 0
	for i, s := range states {
		pool := make([]hexgrid.CellID, 0, len(byState[s.Abbr]))
		for _, id := range byState[s.Abbr] {
			if !used[id] {
				pool = append(pool, id)
			}
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		pools[i] = pool
		totalCapacity += len(pool)
	}
	if totalCapacity < n {
		return nil, nil // caller reports the shortfall
	}

	// Per-state targets proportional to rural weight, capped by pool
	// size, with leftovers redistributed weight-first over states with
	// spare cells.
	targets := make([]int, len(states))
	assigned := 0
	for i, s := range states {
		t := int(math.Floor(float64(n) * s.RuralWeight / totalWeight))
		if t > len(pools[i]) {
			t = len(pools[i])
		}
		targets[i] = t
		assigned += t
	}
	for assigned < n {
		progressed := false
		for i, s := range states {
			if assigned >= n {
				break
			}
			spare := len(pools[i]) - targets[i]
			if spare <= 0 {
				continue
			}
			add := int(math.Ceil(float64(n-assigned) * s.RuralWeight / totalWeight))
			if add > spare {
				add = spare
			}
			if add > n-assigned {
				add = n - assigned
			}
			targets[i] += add
			assigned += add
			progressed = progressed || add > 0
		}
		if !progressed {
			break
		}
	}

	// Flatten the selected cells in the serial emission order (state by
	// state), then resolve counties — the expensive, RNG-free step — in
	// parallel, each result landing in its emission slot.
	type pick struct {
		id    hexgrid.CellID
		state int
	}
	picks := make([]pick, 0, n)
	counties := make([][]usgeo.County, len(states))
	for i, s := range states {
		if targets[i] > 0 {
			counties[i] = usgeo.Counties(s)
		}
		for _, id := range pools[i][:targets[i]] {
			picks = append(picks, pick{id: id, state: i})
		}
	}
	return par.Map(ctx, workers, len(picks), func(k int) (site, error) {
		p := picks[k]
		center := p.id.LatLng()
		county, ok := countyFor(counties[p.state], center)
		if !ok {
			county = nearestCounty(counties[p.state], center)
		}
		return site{id: p.id, countyFIPS: county.FIPS}, nil
	})
}

// usCells enumerates every grid cell whose center falls inside a US
// state frame, bucketed by state in deterministic order. The 20
// icosahedron faces are walked concurrently, each visiting only the
// rows and cells that can meet the US box; concatenating the face
// shards in face order reproduces hexgrid.ForEachCell's exact per-state
// bucket ordering.
func usCells(ctx context.Context, res hexgrid.Resolution, workers int) (map[string][]hexgrid.CellID, error) {
	//lint:ignore detrand wall-clock feeds the grid-enumeration timing metric only, never generated data
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "bdc.us_cells")
	defer func() {
		metricGridSecs.ObserveSince(start)
		span.End()
	}()
	shards, err := par.Map(ctx, workers, 20, func(f int) (map[string][]hexgrid.CellID, error) {
		shard := make(map[string][]hexgrid.CellID)
		// The US (including the trimmed Alaska frame and Hawaii) lies
		// inside this box.
		hexgrid.ForEachCellOnFaceInBox(res, f, 18, 67, -169, -66, func(id hexgrid.CellID, center geo.LatLng) {
			if s, ok := usgeo.StateAt(center); ok {
				shard[s.Abbr] = append(shard[s.Abbr], id)
			}
		})
		return shard, nil
	})
	if err != nil {
		return nil, err
	}
	m := make(map[string][]hexgrid.CellID)
	for _, shard := range shards {
		for abbr, ids := range shard {
			m[abbr] = append(m[abbr], ids...)
		}
	}
	return m, nil
}

func countyFor(counties []usgeo.County, p geo.LatLng) (usgeo.County, bool) {
	for _, c := range counties {
		if c.Contains(p) {
			return c, true
		}
	}
	return usgeo.County{}, false
}

// nearestCounty returns the county whose center is closest to p; used
// when a cell center falls just outside its state's county tiling.
func nearestCounty(counties []usgeo.County, p geo.LatLng) usgeo.County {
	best := counties[0]
	bestD := math.Inf(1)
	for _, c := range counties {
		d := geo.DistanceKm(p, c.Center())
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// GenerateLocations expands cells into individual location records.
// scale in (0, 1] shrinks every cell's location count proportionally
// (minimum 1) so tests can exercise the per-location path cheaply.
// Locations are jittered within 30% of the cell radius of the cell
// center, which keeps every location inside its cell's Voronoi region.
func GenerateLocations(cfg GenConfig, cells []demand.Cell, scale float64) ([]demand.Location, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bdc: scale must be in (0,1], got %v", scale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x10c5))
	spacingKm := cellSpacingKm(cfg.Resolution)
	var out []demand.Location
	var nextID uint64 = 1
	for _, c := range cells {
		n := int(math.Ceil(float64(c.Locations) * scale))
		if n < 1 {
			n = 1
		}
		state := ""
		if st, ok := usgeo.StateAt(c.Center); ok {
			state = st.Abbr
		}
		for k := 0; k < n; k++ {
			r := 0.3 * spacingKm * math.Sqrt(rng.Float64())
			brg := rng.Float64() * 360
			pos := geo.Destination(c.Center, brg, r)
			down, up, tech := randomLegacyService(rng)
			out = append(out, demand.Location{
				ID:          nextID,
				Pos:         pos,
				CountyFIPS:  c.CountyFIPS,
				StateAbbr:   state,
				MaxDownMbps: down,
				MaxUpMbps:   up,
				Technology:  tech,
			})
			nextID++
		}
	}
	return out, nil
}

// cellSpacingKm approximates the distance between adjacent cell centers
// at a resolution.
func cellSpacingKm(res hexgrid.Resolution) float64 {
	// Hexagon of area A has center spacing sqrt(2A/sqrt(3)).
	a := res.AvgCellAreaKm2()
	return math.Sqrt(2 * a / math.Sqrt(3))
}

// randomLegacyService draws a plausible sub-benchmark service offering:
// every generated location is un(der)served by construction.
func randomLegacyService(rng *rand.Rand) (down, up float64, tech string) {
	round2 := func(x float64) float64 { return math.Floor(x*100) / 100 }
	switch p := rng.Float64(); {
	case p < 0.30:
		return 0, 0, "none"
	case p < 0.55:
		return round2(10 + rng.Float64()*15), round2(1 + rng.Float64()*2), "dsl"
	case p < 0.80:
		return round2(25 + rng.Float64()*50), round2(3 + rng.Float64()*7), "fixed-wireless"
	case p < 0.95:
		return round2(100 + rng.Float64()*100), round2(10 + rng.Float64()*8), "cable" // underserved on upload
	default:
		return 25, 3, "satellite"
	}
}
