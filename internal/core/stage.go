package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"leodivide/internal/beams"
	"leodivide/internal/demand"
	"leodivide/internal/memo"
	"leodivide/internal/orbit"
	"leodivide/internal/par"
)

// This file holds core's compute stages: the spread-invariant pieces of
// the sizing sweeps, memoized per dataset in the Distribution's stage
// memo (see internal/memo). Two facts make the staging sound:
//
//   - The binding scan of sizeWithCap depends on the beam config, the
//     shell inclination, the oversubscription and the per-cell cap —
//     but not on the beamspread factor, which only enters afterwards
//     via ConstellationSize. One scan therefore serves every spread of
//     a Table-2 row, every Figure-3 curve and every fleet row.
//   - The diminishing-returns sweep's per-cap (unserved, beams) profile
//     depends on the beam config and oversubscription only; the spread
//     maps it through a per-band satellite table afterwards.
//
// Calibration knobs (CalibratedEffectiveCells, CalibrationLatDeg,
// CellAreaKm2) are deliberately outside both stages: they only affect
// ConstellationSize, which is always evaluated fresh. Parallelism never
// keys a stage — results are identical at every worker count.

// scanKey identifies one binding scan. All fields are comparable; the
// struct is usable as a map key with zero-allocation lookups.
type scanKey struct {
	beams   beams.Config
	incDeg  float64
	oversub float64
	capLoc  int
}

// peakScan is the spread-invariant result of the binding scan: the
// maximum per-cell beam requirement and the index (into the
// distribution's descending cell order) of the binding cell — the
// least-dense-latitude cell among those needing maxBeams.
type peakScan struct {
	maxBeams int
	bindIdx  int
}

// profileKey identifies one diminishing-returns profile.
type profileKey struct {
	beams   beams.Config
	oversub float64
}

// profilePoint is one cap value of the diminishing-returns sweep:
// locations unserved at the cap and the binding cell's beam count.
type profilePoint struct {
	unserved int
	beams    int
}

// modelMemos is core's single anchor entry in a dataset's stage memo:
// two struct-keyed memos, so the hot sizing path pays one constant
// string-key lookup for the anchor plus a struct-key lookup — no
// per-call key formatting. Both are LRU-bounded and coalesce
// concurrent first uses of a key.
type modelMemos struct {
	scans    *memo.Memo[scanKey, peakScan]
	profiles *memo.Memo[profileKey, []profilePoint]
}

const modelMemosKey = "core.model-memos"

// newModelMemos is package-level so the anchor lookup passes a static
// function value instead of allocating a closure per call.
var newModelMemos = func() (any, error) {
	return &modelMemos{
		scans:    memo.New[scanKey, peakScan](0, 0, nil),
		profiles: memo.New[profileKey, []profilePoint](0, 0, nil),
	}, nil
}

// modelMemosOf returns the dataset's model memos, creating them on
// first use. With a nil stage memo (zero-value Distribution) every call
// returns fresh memos: correct, just unmemoized. newModelMemos is
// infallible, so the only error Get can surface is a coalesced
// leader's panic — re-panicking is the honest translation of that
// state.
func modelMemosOf(d *demand.Distribution) *modelMemos {
	v, _, err := d.Stages().Get(context.Background(), modelMemosKey, newModelMemos)
	if err != nil {
		panic(fmt.Sprintf("core: model-memos stage failed: %v", err))
	}
	return v.(*modelMemos)
}

// peakScan returns the memoized binding scan for (oversub, capLoc),
// computing it on first use. The scan is a pure in-memory compute with
// no caller context to honour; as with the anchor, the only error Get
// can surface is a coalesced leader's panic.
func (m Model) peakScan(d *demand.Distribution, oversub float64, capLoc int) peakScan {
	key := scanKey{beams: m.Beams, incDeg: m.InclinationDeg, oversub: oversub, capLoc: capLoc}
	s, _, err := modelMemosOf(d).scans.Get(context.Background(), key, func() (peakScan, error) {
		return m.computePeakScan(d, oversub, capLoc), nil
	})
	if err != nil {
		panic(fmt.Sprintf("core: binding scan failed: %v", err))
	}
	return s
}

// computePeakScan runs the binding scan over the columnar cell data.
// Cells are sorted descending by location count, so the capped served
// count — and with it the beam requirement — is non-increasing along
// the scan. The cells that can bind (beam count equal to the maximum,
// which the first cell fixes) therefore form a prefix, found by binary
// search; only that prefix needs latitude density evaluation. The
// min-density selection keeps the original first-wins strict-< order,
// so the result is identical to the full scan.
func (m Model) computePeakScan(d *demand.Distribution, oversub float64, capLoc int) peakScan {
	locs := d.Locs()
	lats := d.Lats()
	served := int(locs[0])
	if served > capLoc {
		served = capLoc
	}
	b0, _ := m.Beams.BeamsForCell(served, oversub)
	end := sort.Search(len(locs), func(i int) bool {
		s := int(locs[i])
		if s > capLoc {
			s = capLoc
		}
		b, _ := m.Beams.BeamsForCell(s, oversub)
		return b < b0
	})
	bestF := math.Inf(1)
	bestIdx := 0
	for i := 0; i < end; i++ {
		f := orbit.DensityFactor(m.InclinationDeg, lats[i])
		if f < bestF {
			bestF = f
			bestIdx = i
		}
	}
	return peakScan{maxBeams: b0, bindIdx: bestIdx}
}

// sizeAllCells is the BindAllCells sizing loop over the columnar data:
// every cell imposes a density constraint and the largest requirement
// wins (strict >, first wins — same selection as the struct scan).
func (m Model) sizeAllCells(d *demand.Distribution, spread, oversub float64, capLoc int) SizingResult {
	locs := d.Locs()
	lats := d.Lats()
	bestN, bestIdx, bestBeams := 0, 0, 0
	for i := range locs {
		served := int(locs[i])
		if served > capLoc {
			served = capLoc
		}
		b, _ := m.Beams.BeamsForCell(served, oversub)
		n := m.ConstellationSize(spread, b, lats[i])
		if n > bestN {
			bestN, bestIdx, bestBeams = n, i, b
		}
	}
	return SizingResult{
		Spread:      spread,
		Oversub:     oversub,
		PeakBeams:   bestBeams,
		BindingCell: d.Cells()[bestIdx],
		Satellites:  bestN,
	}
}

// returnsProfile returns the memoized diminishing-returns profile for
// oversub: for each cap t in [perBeam, hardCap], the unserved-location
// count and the binding beam requirement. Errors (cancellation) are
// returned, never cached.
func (m Model) returnsProfile(ctx context.Context, d *demand.Distribution, oversub float64) ([]profilePoint, error) {
	key := profileKey{beams: m.Beams, oversub: oversub}
	prof, _, err := modelMemosOf(d).profiles.Get(ctx, key, func() ([]profilePoint, error) {
		hardCap := m.Beams.MaxServableLocations(oversub)
		perBeam := m.Beams.LocationsPerBeam(oversub)
		return par.Map(ctx, m.Parallelism, hardCap-perBeam+1, func(i int) (profilePoint, error) {
			t := perBeam + i
			b, _ := m.Beams.BeamsForCell(t, oversub)
			return profilePoint{unserved: d.ExcessAbove(t), beams: b}, nil
		})
	})
	return prof, err
}
