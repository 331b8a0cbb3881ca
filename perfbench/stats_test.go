package perfbench

import (
	"context"
	"testing"
	"time"

	"leodivide/internal/obs"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{1, 0.99, 1},
		{2, 0.5, 1},
		{2, 0.99, 2},
		{10, 0.5, 5},
		{10, 0.9, 9},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{1000, 0.5, 500},
		{1001, 0.5, 501},
		{5, 0, 1},
		{5, 1, 5},
	}
	for _, c := range cases {
		if got := NearestRank(seq(c.n), c.q); got != c.want {
			t.Errorf("NearestRank(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("NearestRank(nil) = %v, want 0", got)
	}
}

// TestTailPercentileCutoff pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond its rank.
func TestTailPercentileCutoff(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{999, 0.99, 9, false},
		{1000, 0.99, 10, true},
		{1099, 0.99, 10, true},
		{1100, 0.99, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	}
	for _, c := range cases {
		if got := Beyond(c.n, c.q); got != c.beyond {
			t.Errorf("Beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if _, ok := TailPercentile(seq(c.n), c.q); ok != c.ok {
			t.Errorf("TailPercentile(1..%d, %v) reportable = %v, want %v", c.n, c.q, ok, c.ok)
		}
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := Median(in); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median reordered its input: %v", in)
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   Interval
		children []Interval
		want     time.Duration
	}{
		{"no children", Interval{0, 100}, nil, 100},
		{"disjoint", Interval{0, 100}, []Interval{{10, 20}, {50, 70}}, 70},
		{"overlapping siblings count once", Interval{0, 100}, []Interval{{10, 40}, {20, 50}, {30, 35}}, 60},
		{"touching", Interval{0, 100}, []Interval{{10, 20}, {20, 30}}, 80},
		{"clipped to the parent", Interval{10, 100}, []Interval{{0, 20}, {90, 120}}, 70},
		{"fully covered", Interval{0, 100}, []Interval{{0, 60}, {40, 100}}, 0},
		{"outside the parent", Interval{0, 100}, []Interval{{200, 300}}, 100},
		{"unsorted", Interval{0, 100}, []Interval{{60, 80}, {0, 10}}, 70},
		{"empty parent", Interval{5, 5}, []Interval{{0, 10}}, 0},
	}
	for _, c := range cases {
		if got := SelfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTraceOverRecordedSpans checks the span index on a real recorded
// tree: parent/child links, Find, Self and Covered.
func TestTraceOverRecordedSpans(t *testing.T) {
	rc := &obs.RecordingCollector{}
	restore := obs.SetCollector(rc)
	ctx, root := obs.StartSpan(context.Background(), "root")
	_, a := obs.StartSpan(ctx, "leaf")
	a.End()
	bctx, b := obs.StartSpan(ctx, "mid")
	_, c := obs.StartSpan(bctx, "leaf")
	c.End()
	b.End()
	root.End()
	_, other := obs.StartSpan(context.Background(), "other")
	other.End()
	restore()

	// Pin the timings so the arithmetic is exact.
	t0 := root.Start
	set := func(s *obs.Span, start, dur time.Duration) { s.Start, s.Duration = t0.Add(start), dur }
	set(root, 0, 100)
	set(a, 10, 20)
	set(b, 25, 50)
	set(c, 30, 10)
	set(other, 200, 5)

	tr := NewTrace(rc.Spans())
	if got := len(tr.Roots()); got != 2 {
		t.Fatalf("%d roots, want 2", got)
	}
	if got := len(tr.Children(root)); got != 2 {
		t.Errorf("root has %d children, want 2", got)
	}
	if got := len(tr.Find(root, "leaf")); got != 2 {
		t.Errorf("Find(root, leaf) = %d spans, want 2", got)
	}
	if got := TotalDuration(tr.Find(root, "leaf")); got != 30 {
		t.Errorf("leaf total = %v, want 30", got)
	}
	// root [0,100) with children [10,30) and [25,75): union [10,75).
	if got := tr.Self(root); got != 35 {
		t.Errorf("Self(root) = %v, want 35", got)
	}
	if got := tr.Self(b); got != 40 {
		t.Errorf("Self(mid) = %v, want 40", got)
	}
	if got := tr.Covered(root); got != 0.65 {
		t.Errorf("Covered(root) = %v, want 0.65", got)
	}
}

func TestAttr(t *testing.T) {
	s := &obs.Span{Attrs: []obs.Attr{obs.Int("tasks", 7), obs.String("config", "bent")}}
	if got := Attr(s, "tasks"); got != "7" {
		t.Errorf("Attr(tasks) = %q, want 7", got)
	}
	if got := Attr(s, "missing"); got != "" {
		t.Errorf("Attr(missing) = %q, want empty", got)
	}
}

func TestWindows(t *testing.T) {
	at := []time.Duration{0, 5, 9, 10, 19, 25, 30, -1}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	w := Windows(at, vals, 10, 25)
	if len(w) != 2 {
		t.Fatalf("%d windows, want 2 (the partial third is dropped)", len(w))
	}
	if len(w[0]) != 3 || len(w[1]) != 2 || w[1][0] != 4 {
		t.Errorf("windows = %v, want [[1 2 3] [4 5]]", w)
	}
}

func TestWindowMedian(t *testing.T) {
	windows := [][]float64{{3, 1, 2}, {10, 20}, {}, {5}}
	max := func(s []float64) (float64, bool) {
		if len(s) == 0 {
			return 0, false
		}
		return s[len(s)-1], true
	}
	// Per-window maxima 3, 20, 5; the empty window reports nothing.
	if got, ok := WindowMedian(windows, max); !ok || got != 5 {
		t.Errorf("WindowMedian = %v, %v; want 5, true", got, ok)
	}
	if _, ok := WindowMedian([][]float64{{}}, max); ok {
		t.Error("WindowMedian reported a value from no windows")
	}
}
