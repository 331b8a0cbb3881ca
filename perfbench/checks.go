package perfbench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"leodivide"
	"leodivide/internal/golden"
	"leodivide/internal/region"
	"leodivide/internal/sim"
)

// Figure 1 anchors of the calibrated national map: total locations,
// the peak cell, and the 99th and 90th percentile cells. Calibration
// pins them at every seed.
const (
	AnchorTotalLocs = 4672000
	AnchorMaxCell   = 5998
	AnchorP99       = 1437
	AnchorP90       = 552
)

// CheckFig1 verifies a Figure 1 result against the paper's anchors.
func CheckFig1(v any) error {
	f, ok := v.(leodivide.Fig1Result)
	if !ok {
		return fmt.Errorf("perfbench: fig1 result has type %T", v)
	}
	if f.TotalLocs != AnchorTotalLocs || f.MaxCell != AnchorMaxCell || f.P99 != AnchorP99 || f.P90 != AnchorP90 {
		return fmt.Errorf("perfbench: fig1 anchors %d/%d/%d/%d, want %d/%d/%d/%d",
			f.TotalLocs, f.MaxCell, f.P99, f.P90, AnchorTotalLocs, AnchorMaxCell, AnchorP99, AnchorP90)
	}
	return nil
}

// ResultHash returns the SHA-256 of a result's canonical corpus
// encoding, so results of separate processes compare by value.
func ResultHash(v any) (string, error) {
	b, err := golden.Encode(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CheckSim verifies that a simulator result covers the configured
// epochs and that every fraction lies in [0, 1].
func CheckSim(r sim.Result, epochs int) error {
	if r.Epochs != epochs {
		return fmt.Errorf("perfbench: sim ran %d epochs, want %d", r.Epochs, epochs)
	}
	fractions := []struct {
		name string
		v    float64
	}{
		{"min covered", r.MinCoveredFraction}, {"mean covered", r.MeanCoveredFraction},
		{"min served", r.MinServedFraction}, {"mean served", r.MeanServedFraction},
	}
	for _, f := range fractions {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("perfbench: sim %s fraction %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// GoldenReplay replays the committed golden corpus under root (the
// repository checkout) the way `leodivide verify` does: every registry
// experiment at every committed (seed, scale), plus the findings of
// every sibling region. It returns how many replays ran and how many
// drifted.
func GoldenReplay(ctx context.Context, root string) (replayed, drifted int, err error) {
	corpus := filepath.Join(root, "testdata", "golden")
	configs, err := golden.Configs(corpus)
	if err != nil {
		return 0, 0, err
	}
	registry := leodivide.NewModel().Experiments()
	for _, cc := range configs {
		rc := leodivide.DefaultRunConfig()
		rc.Seed, rc.Scale = cc.Seed, cc.Scale
		ds, err := rc.Generate(ctx)
		if err != nil {
			return 0, 0, err
		}
		m := rc.BuildModel()
		for _, exp := range registry {
			e, ok := m.ExperimentByName(exp.Name)
			if !ok {
				return 0, 0, fmt.Errorf("perfbench: experiment %q vanished", exp.Name)
			}
			d, err := replayOne(ctx, e, ds, golden.File(corpus, cc.Seed, cc.Scale, exp.Name))
			if err != nil {
				return 0, 0, err
			}
			replayed++
			if d {
				drifted++
			}
		}
	}
	regionCorpus := filepath.Join(root, "testdata", "golden-regions")
	for _, key := range region.Names() {
		if key == region.DefaultKey {
			continue
		}
		dir := filepath.Join(regionCorpus, key)
		configs, err := golden.Configs(dir)
		if err != nil {
			return 0, 0, err
		}
		for _, cc := range configs {
			ds, err := leodivide.GenerateDataset(ctx,
				leodivide.WithSeed(cc.Seed), leodivide.WithScale(cc.Scale), leodivide.WithRegion(key))
			if err != nil {
				return 0, 0, err
			}
			e, ok := leodivide.NewModel().ExperimentByName("findings")
			if !ok {
				return 0, 0, fmt.Errorf("perfbench: findings experiment vanished")
			}
			d, err := replayOne(ctx, e, ds, golden.File(dir, cc.Seed, cc.Scale, "findings"))
			if err != nil {
				return 0, 0, err
			}
			replayed++
			if d {
				drifted++
			}
		}
	}
	return replayed, drifted, nil
}

// replayOne runs one experiment and reports whether its result drifted
// from the frozen encoding at path.
func replayOne(ctx context.Context, e leodivide.Experiment, ds *leodivide.Dataset, path string) (bool, error) {
	v, err := e.Run(ctx, ds)
	if err != nil {
		return false, fmt.Errorf("perfbench: replay %s: %w", e.Name, err)
	}
	got, err := golden.Encode(v)
	if err != nil {
		return false, err
	}
	want, err := golden.ReadFile(path)
	if err != nil {
		return false, err
	}
	diffs, err := golden.Compare(got, want, golden.Default())
	if err != nil {
		return false, err
	}
	return len(diffs) > 0, nil
}
