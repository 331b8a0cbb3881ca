package sim

import (
	"context"
	"math"
	"sort"

	"leodivide/internal/demand"
)

// EpochStats is the measurement of one simulation snapshot.
type EpochStats struct {
	// TimeSec is the snapshot time after epoch.
	TimeSec float64
	// CoveredFraction is the fraction of demand cells with ≥1 visible
	// satellite.
	CoveredFraction float64
	// ServedFraction is the fraction of cells whose beam requirement
	// the allocator met.
	ServedFraction float64
	// MeanVisible is the mean visible-satellite count per cell.
	MeanVisible float64
	// BeamUtilization is the fraction of the constellation's beam
	// cell-slots consumed by the allocation.
	BeamUtilization float64
	// Handovers counts cells whose serving satellite changed since the
	// previous epoch (0 at the first epoch).
	Handovers int
}

// Series is one simulation pass: the per-epoch measurements and the
// first epoch's coverage by latitude band.
type Series struct {
	Epochs []EpochStats
	Bands  []LatitudeBand
}

// RunSeries runs the simulation and returns per-epoch measurements,
// including beam utilization and satellite handover counts — the
// dynamics a static sizing model cannot see — plus the first epoch's
// latitude bands, tallied from that epoch's visibility lists.
func RunSeries(ctx context.Context, cfg Config, cells []demand.Cell) (Series, error) {
	r, err := newRunner(cfg, cells)
	if err != nil {
		return Series{}, err
	}
	alloc := newAllocator(cfg, cells)
	nsats := len(r.orbits)
	totalSlots := float64(nsats) * float64(cfg.Beams.BeamsPerSatellite) * cfg.Spread

	out := Series{Epochs: make([]EpochStats, 0, cfg.Epochs)}
	prevServer := make([]int, len(cells))
	for i := range prevServer {
		prevServer[i] = -1
	}
	for e := 0; e < cfg.Epochs; e++ {
		t := cfg.StepSeconds * float64(e)
		snap, err := r.snapshot(ctx, t)
		if err != nil {
			return Series{}, err
		}
		visible, err := r.visibleSats(ctx, snap)
		if err != nil {
			return Series{}, err
		}
		if e == 0 {
			out.Bands = latitudeBands(cells, visible)
		}
		assignment, used := alloc.assign(visible, nsats)

		covered, served, totalVisible, handovers := 0, 0, 0, 0
		for i := range cells {
			if len(visible[i]) > 0 {
				covered++
			}
			totalVisible += len(visible[i])
			if assignment[i] >= 0 {
				served++
				if e > 0 && prevServer[i] != assignment[i] {
					handovers++
				}
			}
		}
		copy(prevServer, assignment)
		out.Epochs = append(out.Epochs, EpochStats{
			TimeSec:         t,
			CoveredFraction: float64(covered) / float64(len(cells)),
			ServedFraction:  float64(served) / float64(len(cells)),
			MeanVisible:     float64(totalVisible) / float64(len(cells)),
			BeamUtilization: used / totalSlots,
			Handovers:       handovers,
		})
	}
	return out, nil
}

// allocator is the greedy beam allocator's per-call state: the cells in
// descending-demand order and each cell's beam need, neither of which
// changes between epochs.
type allocator struct {
	order    []int
	need     []float64 // cell-slots the cell consumes when served
	feasible []bool    // the need fits within the per-cell beam limit
	perSat   float64   // cell-slots per satellite
}

func newAllocator(cfg Config, cells []demand.Cell) allocator {
	a := allocator{
		order:    make([]int, len(cells)),
		need:     make([]float64, len(cells)),
		feasible: make([]bool, len(cells)),
		perSat:   float64(cfg.Beams.BeamsPerSatellite) * cfg.Spread,
	}
	for i, c := range cells {
		a.order[i] = i
		b, ok := cfg.Beams.BeamsForCell(c.Locations, cfg.Oversub)
		need := float64(b) * cfg.Spread
		if b == 1 {
			need = 1
		}
		if !ok {
			need = float64(cfg.Beams.MaxBeamsPerCell) * cfg.Spread
		}
		a.need[i], a.feasible[i] = need, ok
	}
	sort.Slice(a.order, func(i, j int) bool {
		return cells[a.order[i]].Locations > cells[a.order[j]].Locations
	})
	return a
}

// assign serves cells in descending-demand order, each from its visible
// satellite with the most free cell-slots. It returns, for each cell,
// the serving satellite index (-1 when unmet) and the total cell-slots
// consumed.
func (a allocator) assign(visible [][]int, nsats int) ([]int, float64) {
	slots := make([]float64, nsats)
	for i := range slots {
		slots[i] = a.perSat
	}
	assignment := make([]int, len(a.order))
	for i := range assignment {
		assignment[i] = -1
	}
	consumed := 0.0
	for _, ci := range a.order {
		need := a.need[ci]
		best, bestFree := -1, 0.0
		for _, si := range visible[ci] {
			if slots[si] > bestFree {
				best, bestFree = si, slots[si]
			}
		}
		if best >= 0 && bestFree >= need {
			slots[best] -= need
			consumed += need
			if a.feasible[ci] {
				assignment[ci] = best
			}
		}
	}
	return assignment, consumed
}

// LatitudeBand is first-epoch coverage within one 10° latitude band,
// the view that shows an inclined shell's Alaska cliff. Cells count as
// covered as in EpochStats.CoveredFraction (bent-pipe: linked only).
type LatitudeBand struct {
	LatLoDeg, LatHiDeg float64
	Cells              int
	CoveredFraction    float64
}

// Band k = floor(lat/bandDeg) holds [k·bandDeg, (k+1)·bandDeg); over
// [-90°, 90°], k runs from -9 to 9 (90° itself opens band 9).
const (
	bandDeg   = 10
	bandCount = 19
)

// latitudeBands tallies the non-empty bands in ascending latitude.
func latitudeBands(cells []demand.Cell, visible [][]int) []LatitudeBand {
	var total, covered [bandCount]int
	for i, c := range cells {
		k := int(math.Floor(c.Center.Lat/bandDeg)) + bandCount/2
		total[k]++
		if len(visible[i]) > 0 {
			covered[k]++
		}
	}
	var out []LatitudeBand
	for k, n := range total {
		if n == 0 {
			continue
		}
		lo := float64(k-bandCount/2) * bandDeg
		out = append(out, LatitudeBand{
			LatLoDeg:        lo,
			LatHiDeg:        lo + bandDeg,
			Cells:           n,
			CoveredFraction: float64(covered[k]) / float64(n),
		})
	}
	return out
}
