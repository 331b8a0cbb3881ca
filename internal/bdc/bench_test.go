package bdc

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkUSCellsCold times the full-scale US grid enumeration, the
// bdc.us_cells layer, serially and at one worker per CPU. Nothing is
// cached between iterations, so every one is cold.
func BenchmarkUSCellsCold(b *testing.B) {
	res := DefaultGenConfig().Resolution
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := usCells(ctx, res, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateCells times one cold full-scale national generation
// (grid enumeration, body counts, site sampling, county resolution).
func BenchmarkGenerateCells(b *testing.B) {
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			cfg := DefaultGenConfig()
			cfg.Parallelism = workers
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateCells(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
