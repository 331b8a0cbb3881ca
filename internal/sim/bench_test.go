package sim

import (
	"context"
	"testing"

	"leodivide/internal/region"
)

// BenchmarkVisibleSats times one epoch's visibility sweep over the
// national map (scale 1, seed 1: 27,047 cells) under Starlink's
// principal shell, free and bent-pipe. Run it with `make bench-sim`.
func BenchmarkVisibleSats(b *testing.B) {
	r, ok := region.ByName(region.DefaultKey)
	if !ok {
		b.Fatal("default region missing")
	}
	out, err := r.Generate(context.Background(), region.GenConfig{Seed: 1, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"free", DefaultConfig()}, {"bent", bentPipe(DefaultConfig())}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			run, err := newRunner(bc.cfg, out.Cells)
			if err != nil {
				b.Fatal(err)
			}
			snap, err := run.snapshot(ctx, 0)
			if err != nil {
				b.Fatal(err)
			}
			visible := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lists, err := run.visibleSats(ctx, snap)
				if err != nil {
					b.Fatal(err)
				}
				visible = 0
				for _, l := range lists {
					visible += len(l)
				}
			}
			b.ReportMetric(float64(visible)/float64(len(out.Cells)), "visible/cell")
		})
	}
}
