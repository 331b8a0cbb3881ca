// Package sim is a time-stepped constellation simulator used to
// cross-check the analytic sizing model: it propagates a Walker shell,
// snapshots satellite positions at each epoch, assigns spot beams to
// demand cells greedily, and measures coverage and served fractions
// empirically. It plays the role Hypatia-class simulators play for the
// paper's analytical claims — an independent, mechanism-level check
// that the density profile and cells-per-satellite accounting hold up.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"leodivide/internal/beams"
	"leodivide/internal/constellation"
	"leodivide/internal/demand"
	"leodivide/internal/geo"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
)

// Config parameterizes a simulation run.
type Config struct {
	// Shell is the constellation to propagate.
	Shell orbit.Walker
	// Fleet, when non-nil, overrides Shell with a multi-shell fleet
	// (e.g. constellation.StarlinkGen1()).
	Fleet *constellation.Fleet
	// MinElevationDeg is the user-terminal elevation mask.
	MinElevationDeg float64
	// Epochs is how many snapshots to evaluate.
	Epochs int
	// StepSeconds is the time between snapshots.
	StepSeconds float64
	// Beams is the per-satellite beam budget.
	Beams beams.Config
	// Spread is the beamspread factor in force.
	Spread float64
	// Oversub is the per-cell oversubscription cap.
	Oversub float64
	// RequireGatewayVisibility enables bent-pipe mode: a satellite may
	// only serve user cells while it also has a gateway in view.
	RequireGatewayVisibility bool
	// Gateways are the ground-station sites for bent-pipe mode.
	Gateways []geo.LatLng
	// GatewayElevationDeg is the minimum elevation at the gateway
	// (gateway antennas track lower than user terminals), in [0, 90).
	// 0 means the 10° default.
	GatewayElevationDeg float64
	// Parallelism bounds the worker count for the per-epoch geometry
	// (satellite propagation, per-cell visibility). 0 means one worker
	// per CPU; 1 is the serial path. Results are identical at every
	// setting: each satellite/cell lands in an index-ordered slot and
	// the greedy beam allocator stays serial.
	Parallelism int
}

// DefaultConfig returns a one-orbit sweep of Starlink's principal shell
// with a 25° elevation mask.
func DefaultConfig() Config {
	return Config{
		Shell:           orbit.StarlinkShell1(),
		MinElevationDeg: 25,
		Epochs:          16,
		StepSeconds:     360,
		Beams:           beams.DefaultConfig(),
		Spread:          10,
		Oversub:         20,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Fleet != nil {
		if err := c.Fleet.Validate(); err != nil {
			return err
		}
	} else if err := c.Shell.Validate(); err != nil {
		return err
	}
	if err := c.Beams.Validate(); err != nil {
		return err
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("sim: epochs must be positive, got %d", c.Epochs)
	}
	if c.StepSeconds <= 0 {
		return fmt.Errorf("sim: step must be positive, got %v", c.StepSeconds)
	}
	if c.MinElevationDeg < 0 || c.MinElevationDeg >= 90 {
		return fmt.Errorf("sim: elevation mask %v out of range", c.MinElevationDeg)
	}
	if c.GatewayElevationDeg < 0 || c.GatewayElevationDeg >= 90 {
		return fmt.Errorf("sim: gateway elevation mask %v out of range", c.GatewayElevationDeg)
	}
	if c.RequireGatewayVisibility && len(c.Gateways) == 0 {
		return fmt.Errorf("sim: bent-pipe mode needs at least one gateway")
	}
	return nil
}

// Result aggregates per-epoch measurements.
type Result struct {
	// Epochs is the number of snapshots evaluated.
	Epochs int
	// MeanVisibleSats is the mean number of satellites above the mask
	// per demand cell.
	MeanVisibleSats float64
	// MinCoveredFraction and MeanCoveredFraction report the fraction of
	// demand cells with at least one visible satellite, at the worst
	// epoch and on average.
	MinCoveredFraction, MeanCoveredFraction float64
	// MinServedFraction and MeanServedFraction report the fraction of
	// demand whose beam requirement was satisfied by the greedy
	// allocator.
	MinServedFraction, MeanServedFraction float64
}

// Run propagates the shell and evaluates coverage and beam allocation
// over the demand cells at each epoch: RunSeries, summarised.
func Run(ctx context.Context, cfg Config, cells []demand.Cell) (Result, error) {
	series, err := RunSeries(ctx, cfg, cells)
	if err != nil {
		return Result{}, err
	}
	return series.Summary(), nil
}

// Summary aggregates the series' epochs into a Result.
func (s Series) Summary() Result {
	res := Result{Epochs: len(s.Epochs), MinCoveredFraction: 1, MinServedFraction: 1}
	sumVisible, sumCovered, sumServed := 0.0, 0.0, 0.0
	for _, e := range s.Epochs {
		sumCovered += e.CoveredFraction
		sumServed += e.ServedFraction
		sumVisible += e.MeanVisible
		if e.CoveredFraction < res.MinCoveredFraction {
			res.MinCoveredFraction = e.CoveredFraction
		}
		if e.ServedFraction < res.MinServedFraction {
			res.MinServedFraction = e.ServedFraction
		}
	}
	res.MeanVisibleSats = sumVisible / float64(res.Epochs)
	res.MeanCoveredFraction = sumCovered / float64(res.Epochs)
	res.MeanServedFraction = sumServed / float64(res.Epochs)
	return res
}

// satPos is one satellite's snapshot position.
type satPos struct {
	ecef     geo.Vec3
	sub      geo.LatLng
	unit     geo.Vec3 // sub.Vector()
	covAngle float64  // Earth-central coverage half-angle, radians
	minDot   float64  // cos(covAngle) - prefilterMargin
	linked   bool     // a gateway is in view; always true outside bent-pipe mode
}

// prefilterMargin is how far a candidate's dot product cv·sv may fall
// below cos(covAngle) and still reach the exact coverage test. The exact
// test computes the angle as atan2(|cv×sv|, cv·sv) on vectors within a
// few ulps of unit length, so that angle and the dot product are each
// within ~1e-15 of their true values. A satellite that passes the exact
// test therefore has cv·sv >= cos(covAngle) - ~2e-15 (cos is
// 1-Lipschitz), and a margin six orders of magnitude larger rejects
// only candidates the exact test would reject too.
const prefilterMargin = 1e-9

// Satellites are bucketed by subsatellite point on a 6° grid.
const (
	bucketDeg  = 6.0
	latBuckets = 30 // 180 / bucketDeg
	lngBuckets = 60 // 360 / bucketDeg
)

// windowPadDeg widens every scan window past the footprint radius, so
// float rounding in bucket keys and window bounds cannot drop a
// satellite that sits on a bucket edge.
const windowPadDeg = 1e-6

// window is the bucket range one cell scans: latitude rows row0..row1,
// and cols consecutive longitude columns from col0, wrapping mod 360°.
type window struct{ row0, row1, col0, cols int32 }

// latRow and lngCol are the bucket coordinates of a point.
func latRow(lat float64) int32 {
	return int32(min(max(math.Floor((lat+90)/bucketDeg), 0), latBuckets-1))
}

func lngCol(lng float64) int32 { return wrapCol(math.Floor(lng / bucketDeg)) }

func wrapCol(col float64) int32 {
	c := int32(math.Mod(col, lngBuckets))
	if c < 0 {
		c += lngBuckets
	}
	return c
}

// scanWindow returns the buckets that can hold the subsatellite point
// of any satellite within reachDeg of p. A point within reachDeg of p
// differs from it in latitude by at most reachDeg. The great-circle arc
// from p to it stays inside the cap of radius reachDeg, so its latitude
// never exceeds φm = |p.Lat| + reachDeg, and along an arc of length s
// the longitude advances by at most s/cos φm. Caps that come within 1°
// of a pole, or whose longitude span would wrap the globe, scan every
// longitude.
func scanWindow(p geo.LatLng, reachDeg float64) window {
	w := window{row0: latRow(p.Lat - reachDeg), row1: latRow(p.Lat + reachDeg), cols: lngBuckets}
	poleward := math.Abs(p.Lat) + reachDeg
	if poleward >= 89 {
		return w
	}
	half := reachDeg / math.Cos(geo.Radians(poleward))
	lo := math.Floor((p.Lng - half) / bucketDeg)
	hi := math.Floor((p.Lng + half) / bucketDeg)
	if hi-lo+1 < lngBuckets {
		w.col0, w.cols = wrapCol(lo), int32(hi-lo+1)
	}
	return w
}

// runner is one simulation call's state. Everything that does not
// change between epochs is computed once here: the orbits, the cells'
// unit vectors and scan windows, and the gateways' unit vectors. Each
// epoch then costs one propagation sweep over the satellites and one
// visibility sweep over the cells.
type runner struct {
	cfg      Config
	orbits   []orbit.CircularOrbit
	cellVecs []geo.Vec3
	windows  []window
	gateways []geo.Vec3 // unit vectors; nil unless bent-pipe mode is on
	gwMask   float64
	// index buckets the epoch's linked satellites by subsatellite
	// point; rebuilt (reusing its slices) at every epoch.
	index [latBuckets * lngBuckets][]int32
}

func newRunner(cfg Config, cells []demand.Cell) (*runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sim: no demand cells")
	}
	orbits, err := cfg.orbits()
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:      cfg,
		orbits:   orbits,
		cellVecs: make([]geo.Vec3, len(cells)),
		windows:  make([]window, len(cells)),
	}
	// The scan reach must cover the widest footprint present.
	covAngle := 0.0
	for _, o := range orbits {
		covAngle = max(covAngle, coverageAngleFor(o.AltitudeKm, cfg.MinElevationDeg))
	}
	reachDeg := geo.Degrees(covAngle) + windowPadDeg
	for i, c := range cells {
		if !(math.Abs(c.Center.Lat) <= 90) {
			return nil, fmt.Errorf("sim: cell %d latitude %v out of range", c.ID, c.Center.Lat)
		}
		r.cellVecs[i] = c.Center.Vector()
		r.windows[i] = scanWindow(c.Center, reachDeg)
	}
	if cfg.RequireGatewayVisibility {
		r.gwMask = cfg.GatewayElevationDeg
		if r.gwMask == 0 {
			r.gwMask = 10
		}
		for _, gw := range cfg.Gateways {
			r.gateways = append(r.gateways, gw.Vector())
		}
	}
	return r, nil
}

// orbits expands the configured shell or fleet, tagging each orbit.
func (c Config) orbits() ([]orbit.CircularOrbit, error) {
	if c.Fleet != nil {
		return c.Fleet.Orbits()
	}
	return c.Shell.Orbits()
}

// snapshot propagates every satellite to time t.
func (r *runner) snapshot(ctx context.Context, t float64) ([]satPos, error) {
	minElev := r.cfg.MinElevationDeg
	return par.Map(ctx, r.cfg.Parallelism, len(r.orbits), func(i int) (satPos, error) {
		o := r.orbits[i]
		ecef := orbit.ECIToECEF(o.PositionECI(t), t)
		sub := ecef.LatLng()
		covAngle := coverageAngleFor(o.AltitudeKm, minElev)
		return satPos{
			ecef:     ecef,
			sub:      sub,
			unit:     sub.Vector(),
			covAngle: covAngle,
			minDot:   math.Cos(covAngle) - prefilterMargin,
			linked:   r.linked(ecef),
		}, nil
	})
}

// linked reports whether a gateway sees the satellite at ecef above the
// gateway mask; always true outside bent-pipe mode.
func (r *runner) linked(ecef geo.Vec3) bool {
	if r.gateways == nil {
		return true
	}
	for _, gw := range r.gateways {
		if orbit.ElevationDegFrom(ecef, gw) >= r.gwMask {
			return true
		}
	}
	return false
}

// visibleSats returns, per demand cell, the ascending indices of the
// linked satellites above the elevation mask. The bucket index is built
// serially; the per-cell scans fan out over workers, each writing its
// own slot. A candidate costs one dot product unless it survives the
// prefilter, and then runs the exact tests: the central angle within
// the footprint and the elevation above the mask.
func (r *runner) visibleSats(ctx context.Context, sats []satPos) ([][]int, error) {
	for k := range r.index {
		r.index[k] = r.index[k][:0]
	}
	for i, s := range sats {
		if s.linked {
			k := latRow(s.sub.Lat)*lngBuckets + lngCol(s.sub.Lng)
			r.index[k] = append(r.index[k], int32(i))
		}
	}
	minElev := r.cfg.MinElevationDeg
	out := make([][]int, len(r.cellVecs))
	err := par.ForEach(ctx, r.cfg.Parallelism, len(out), func(ci int) error {
		cv, w := r.cellVecs[ci], r.windows[ci]
		// Gather on the stack; copy out once, at the final size.
		var buf [64]int
		vis := buf[:0]
		for row := w.row0; row <= w.row1; row++ {
			for k := int32(0); k < w.cols; k++ {
				for _, si := range r.index[row*lngBuckets+(w.col0+k)%lngBuckets] {
					s := &sats[si]
					if cv.Dot(s.unit) >= s.minDot && cv.AngleTo(s.unit) <= s.covAngle &&
						orbit.ElevationDegFrom(s.ecef, cv) >= minElev {
						vis = append(vis, int(si))
					}
				}
			}
		}
		if len(vis) > 0 {
			sort.Ints(vis)
			out[ci] = slices.Clone(vis)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// coverageAngleFor returns the Earth-central coverage half-angle of a
// satellite at the given altitude and elevation mask, in radians.
func coverageAngleFor(altitudeKm, minElevationDeg float64) float64 {
	return orbit.CoverageRadiusKm(altitudeKm, minElevationDeg) / geo.EarthRadiusKm
}
