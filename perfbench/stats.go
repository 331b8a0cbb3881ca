// Package perfbench is the repository benchmark: four workloads that
// time what a user of the leodivide pipeline waits for (a cold paper
// session, the constellation simulator, and the scenario server under
// repeated and never-seen queries), check that every output is right,
// and break the time down by layer from spans and counters the program
// already exports. README.md documents the workloads and metrics.
//
// The files without a _test suffix hold the benchmark's arithmetic and
// output checks, which need no clock. The timed harness lives in
// _test.go files and is built as a test binary by run.sh; see README.md
// for why.
package perfbench

import (
	"math"
	"sort"
	"time"

	"leodivide/internal/obs"
)

// TailMinBeyond is how many samples must lie beyond a percentile's rank
// before that percentile is reported: a tail read from fewer samples is
// one or two outliers, not a percentile.
const TailMinBeyond = 10

// rank returns the 1-based nearest-rank position of the q-quantile in n
// samples: ceil(q*n), clamped to [1, n]. It is the rule `leodivide
// loadgen` reports its percentiles with.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// NearestRank returns the q-quantile of ascending samples by the
// nearest-rank rule: the smallest sample with at least a share q of the
// samples at or below it. It returns 0 for no samples.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// Beyond returns how many of n samples lie strictly beyond the
// q-quantile's nearest rank.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// TailPercentile returns the q-quantile of ascending samples and whether
// it may be reported: at least TailMinBeyond samples lie beyond it.
func TailPercentile(sorted []float64, q float64) (float64, bool) {
	return NearestRank(sorted, q), Beyond(len(sorted), q) >= TailMinBeyond
}

// Median returns the nearest-rank median of samples, which need not be
// sorted; the slice is not modified.
func Median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return NearestRank(s, 0.5)
}

// Interval is a closed-open time range [Start, End) in nanoseconds from
// an arbitrary common origin.
type Interval struct {
	Start, End int64
}

// SelfTime returns the part of parent not covered by any child: the
// parent's length minus the length of the union of the children,
// each clipped to the parent. Overlapping children (a parallel sweep's
// siblings) are counted once.
func SelfTime(parent Interval, children []Interval) time.Duration {
	if parent.End <= parent.Start {
		return 0
	}
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.Start <= curEnd {
			if c.End > curEnd {
				curEnd = c.End
			}
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = c.Start, c.End, true
	}
	if open {
		covered += curEnd - curStart
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// Trace indexes a set of finished spans by parent, so per-layer figures
// can be read off the tree the benchmark's and the program's spans form.
type Trace struct {
	origin   time.Time
	roots    []*obs.Span
	children map[*obs.Span][]*obs.Span
}

// NewTrace indexes spans (as a RecordingCollector returns them). Spans
// whose parent is not in the set count as roots.
func NewTrace(spans []*obs.Span) *Trace {
	t := &Trace{children: make(map[*obs.Span][]*obs.Span, len(spans))}
	in := make(map[*obs.Span]bool, len(spans))
	for _, s := range spans {
		in[s] = true
		if t.origin.IsZero() || s.Start.Before(t.origin) {
			t.origin = s.Start
		}
	}
	for _, s := range spans {
		if s.Parent != nil && in[s.Parent] {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		} else {
			t.roots = append(t.roots, s)
		}
	}
	return t
}

// Roots returns the spans without a recorded parent, in input order.
func (t *Trace) Roots() []*obs.Span { return t.roots }

// Children returns the direct children of s, in input order.
func (t *Trace) Children(s *obs.Span) []*obs.Span { return t.children[s] }

func (t *Trace) interval(s *obs.Span) Interval {
	start := s.Start.Sub(t.origin).Nanoseconds()
	return Interval{Start: start, End: start + s.Duration.Nanoseconds()}
}

// Self returns s's self time: its duration minus the time its direct
// children cover.
func (t *Trace) Self(s *obs.Span) time.Duration {
	kids := t.children[s]
	iv := make([]Interval, len(kids))
	for i, k := range kids {
		iv[i] = t.interval(k)
	}
	return SelfTime(t.interval(s), iv)
}

// Covered returns the share of s's duration its direct children cover.
func (t *Trace) Covered(s *obs.Span) float64 {
	if s.Duration <= 0 {
		return 0
	}
	return 1 - float64(t.Self(s))/float64(s.Duration)
}

// Find returns every span named name in the subtree under s (s
// excluded), in depth-first order.
func (t *Trace) Find(s *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(*obs.Span)
	walk = func(p *obs.Span) {
		for _, c := range t.children[p] {
			if c.Name == name {
				out = append(out, c)
			}
			walk(c)
		}
	}
	walk(s)
	return out
}

// TotalDuration sums the durations of spans.
func TotalDuration(spans []*obs.Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.Duration
	}
	return d
}

// Attr returns the value of s's attribute key, or "" if it has none.
func Attr(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Ms converts a duration to milliseconds with full precision.
func Ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Windows splits a phase of length span into consecutive windows of
// width and returns, for each full window, the values whose time stamp
// (an offset from the phase start) falls in it. A trailing partial
// window is dropped.
func Windows(at []time.Duration, vals []float64, width, span time.Duration) [][]float64 {
	if width <= 0 {
		return nil
	}
	out := make([][]float64, int(span/width))
	for i, t := range at {
		if k := int(t / width); t >= 0 && k < len(out) {
			out[k] = append(out[k], vals[i])
		}
	}
	return out
}

// WindowMedian applies stat to each window's sorted values and returns
// the median of the results over the windows where stat reports one.
// Taking the median over windows keeps a transient stall, confined to
// a few windows, from moving the figure. ok is false when no window
// reports a value.
func WindowMedian(windows [][]float64, stat func(sorted []float64) (float64, bool)) (float64, bool) {
	var per []float64
	for _, w := range windows {
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		if v, ok := stat(s); ok {
			per = append(per, v)
		}
	}
	if len(per) == 0 {
		return 0, false
	}
	return Median(per), true
}
