package orbit

import (
	"fmt"
	"math"

	"leodivide/internal/geo"
)

// Inter-satellite links: the +Grid topology Starlink uses, where each
// satellite holds four optical links — fore and aft to its in-plane
// neighbors, and port/starboard to the nearest satellites in the
// adjacent planes. ISLs free satellites from the bent-pipe gateway
// constraint the paper describes ("indirectly via inter-satellite
// link").

// ISLTopology captures a Walker shell's +Grid link structure at epoch.
type ISLTopology struct {
	shell    Walker
	perPlane int
	// Links[i] lists the satellite indices linked to satellite i
	// (index = plane*perPlane + slot).
	Links [][]int
}

// ISLGrid builds the +Grid topology for a shell: every satellite links
// fore and aft to its in-plane neighbors, and each satellite initiates
// one starboard link to the nearest-anomaly satellite in the next
// plane (Walker phasing shifts slots between planes, and at the
// phasing seam "same slot" can be nearly antipodal — nearest-anomaly
// linking keeps every cross-plane link short). Links are undirected;
// degrees are 4 away from rounding boundaries.
func (w Walker) ISLGrid() (*ISLTopology, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	perPlane := w.Total / w.Planes
	if perPlane < 3 || w.Planes < 3 {
		return nil, fmt.Errorf("orbit: +Grid needs ≥3 planes of ≥3 satellites, got %d×%d", w.Planes, perPlane)
	}
	t := &ISLTopology{shell: w, perPlane: perPlane, Links: make([][]int, w.Total)}
	idx := func(plane, slot int) int {
		plane = ((plane % w.Planes) + w.Planes) % w.Planes
		slot = ((slot % perPlane) + perPlane) % perPlane
		return plane*perPlane + slot
	}
	slotWidth := 360.0 / float64(perPlane)
	phase := func(p int) float64 {
		return 360 * float64(w.Phasing) * float64(p) / float64(w.Total)
	}
	addLink := func(i, j int) {
		for _, e := range t.Links[i] {
			if e == j {
				return
			}
		}
		t.Links[i] = append(t.Links[i], j)
		t.Links[j] = append(t.Links[j], i)
	}
	for p := 0; p < w.Planes; p++ {
		// Anomaly offset between this plane and the next, in slots.
		next := (p + 1) % w.Planes
		deltaSlots := (phase(p) - phase(next)) / slotWidth
		for s := 0; s < perPlane; s++ {
			i := idx(p, s)
			addLink(i, idx(p, s+1)) // in-plane (s-1 covered by neighbor)
			starboard := idx(next, s+int(math.Round(deltaSlots)))
			addLink(i, starboard)
		}
	}
	return t, nil
}

// LinkDistanceKm returns the instantaneous distance of the link between
// satellites i and j at time tSec.
func (t *ISLTopology) LinkDistanceKm(orbits []CircularOrbit, i, j int, tSec float64) float64 {
	pi := orbits[i].PositionECI(tSec)
	pj := orbits[j].PositionECI(tSec)
	return pi.Sub(pj).Norm()
}

// LinkStats summarizes link distances across the topology at an epoch.
type LinkStats struct {
	InPlaneKm                        float64 // constant by symmetry
	CrossPlaneMinKm, CrossPlaneMaxKm float64
}

// Stats measures the topology's link distances at time tSec.
func (t *ISLTopology) Stats(tSec float64) (LinkStats, error) {
	orbits, err := t.shell.Orbits()
	if err != nil {
		return LinkStats{}, err
	}
	var out LinkStats
	out.CrossPlaneMinKm = math.Inf(1)
	for i, links := range t.Links {
		plane := i / t.perPlane
		for _, j := range links {
			d := t.LinkDistanceKm(orbits, i, j, tSec)
			if j/t.perPlane == plane {
				out.InPlaneKm = d // identical for all in-plane pairs
			} else {
				if d < out.CrossPlaneMinKm {
					out.CrossPlaneMinKm = d
				}
				if d > out.CrossPlaneMaxKm {
					out.CrossPlaneMaxKm = d
				}
			}
		}
	}
	return out, nil
}

// HopPath is the shortest ISL path between two ground points through
// the shell: uplink to the best satellite over each endpoint, then the
// minimum-distance route through the +Grid (Dijkstra over link
// lengths).
type HopPath struct {
	Hops     int
	PathKm   float64
	OneWayMs float64
	// Endpoints are the entry/exit satellite indices.
	EntrySat, ExitSat int
}

// Route finds the minimum-distance +Grid path between ground points a
// and b at time tSec, with both endpoints using their
// highest-elevation visible satellite (above maskDeg).
func (t *ISLTopology) Route(a, b geo.LatLng, maskDeg, tSec float64) (HopPath, error) {
	orbits, err := t.shell.Orbits()
	if err != nil {
		return HopPath{}, err
	}
	positions := make([]geo.Vec3, len(orbits))
	for i, o := range orbits {
		positions[i] = ECIToECEF(o.PositionECI(tSec), tSec)
	}
	entry := bestVisible(positions, a, maskDeg)
	exit := bestVisible(positions, b, maskDeg)
	if entry < 0 || exit < 0 {
		return HopPath{}, fmt.Errorf("orbit: no visible satellite at an endpoint")
	}
	// Dijkstra over link distances. The graph is small (thousands of
	// nodes, degree 4); a simple scan-for-minimum suffices.
	const unreached = -2
	dist := make([]float64, len(orbits))
	prev := make([]int, len(orbits))
	done := make([]bool, len(orbits))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = unreached
	}
	dist[entry] = 0
	prev[entry] = -1
	for {
		cur, best := -1, math.Inf(1)
		for i := range dist {
			if !done[i] && dist[i] < best {
				cur, best = i, dist[i]
			}
		}
		if cur < 0 || cur == exit {
			break
		}
		done[cur] = true
		for _, nb := range t.Links[cur] {
			if done[nb] {
				continue
			}
			d := dist[cur] + positions[cur].Sub(positions[nb]).Norm()
			if d < dist[nb] {
				dist[nb] = d
				prev[nb] = cur
			}
		}
	}
	if prev[exit] == unreached {
		return HopPath{}, fmt.Errorf("orbit: grid disconnected (unexpected)")
	}
	pathKm := a.Vector().Scale(geo.EarthRadiusKm).Sub(positions[entry]).Norm() +
		b.Vector().Scale(geo.EarthRadiusKm).Sub(positions[exit]).Norm() +
		dist[exit]
	hops := 0
	for cur := exit; prev[cur] >= 0; cur = prev[cur] {
		hops++
	}
	return HopPath{
		Hops:     hops,
		PathKm:   pathKm,
		OneWayMs: PropagationDelayMs(pathKm),
		EntrySat: entry,
		ExitSat:  exit,
	}, nil
}

// bestVisible returns the highest-elevation satellite index above the
// mask, or -1.
func bestVisible(positions []geo.Vec3, ground geo.LatLng, maskDeg float64) int {
	best, bestEl := -1, maskDeg
	for i, p := range positions {
		if el := ElevationDeg(p, ground); el >= bestEl {
			best, bestEl = i, el
		}
	}
	return best
}
