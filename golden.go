package leodivide

// The golden-corpus replay: the one implementation behind `leodivide
// verify` and TestGoldenCorpus. Every registered experiment's result is
// frozen as canonical JSON under <corpus>/<seed>/<scale>/, and the
// findings of every synthetic region under
// <regionCorpus>/<region>/<seed>/<scale>/. A replay regenerates each
// dataset, reruns each experiment and compares it field by field, so a
// refactor that nudges Table 2 by one satellite fails with the
// experiment, seed, scale and JSON path of the drift.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"leodivide/internal/golden"
	"leodivide/internal/region"
)

// The replay matrix. The scales keep the full replay in CI seconds; two
// seeds catch seed-dependent drift (a constant folded wrongly shows at
// every seed, a generation change differently per seed).
var (
	goldenSeeds  = []int64{1, 2}
	goldenScales = []float64{0.02, 0.05}
)

const goldenRegenerate = "regenerate with `go test -run TestGoldenCorpus -update .`"

// GoldenRun is one (region, seed, scale) configuration of the golden
// corpus: the experiments replayed on one generated dataset.
type GoldenRun struct {
	Region string
	Seed   int64
	Scale  float64
	Cases  []GoldenCase
}

// GoldenCase is one experiment's replay against its frozen file.
type GoldenCase struct {
	Experiment string
	File       string
	// Diffs are the replay's field-level drifts from File; empty when
	// the replay matches or the corpus was rewritten.
	Diffs []golden.Diff
}

// goldenRuns lists the corpus contents: every registry experiment on
// the default region, plus findings on every other declared region
// when regionCorpus is not empty.
func goldenRuns(corpus, regionCorpus string) []GoldenRun {
	var runs []GoldenRun
	add := func(key, root string, experiments []string) {
		for _, seed := range goldenSeeds {
			for _, scale := range goldenScales {
				r := GoldenRun{Region: key, Seed: seed, Scale: scale}
				for _, name := range experiments {
					r.Cases = append(r.Cases, GoldenCase{Experiment: name, File: golden.File(root, seed, scale, name)})
				}
				runs = append(runs, r)
			}
		}
	}
	var registry []string
	for _, e := range NewModel().Experiments() {
		registry = append(registry, e.Name)
	}
	add(region.DefaultKey, corpus, registry)
	if regionCorpus == "" {
		return runs
	}
	for _, key := range region.Names() {
		if key != region.DefaultKey {
			add(key, filepath.Join(regionCorpus, key), []string{"findings"})
		}
	}
	return runs
}

// VerifyGolden replays the golden corpus under the default model at the
// given worker bound, writing per-run progress and up to maxDiffs field
// diffs per drifted case (0 = all) to w. Before replaying it requires
// the corpus to hold exactly the expected files: a missing file,
// (seed, scale) directory or region corpus, or a stray file, is an
// error. An empty regionCorpus skips the per-region replay. With update
// set it rewrites every case's file instead of comparing.
//
// It returns every run it replayed, and an error if any case drifted.
func VerifyGolden(ctx context.Context, w io.Writer, corpus, regionCorpus string, parallelism, maxDiffs int, update bool) ([]GoldenRun, error) {
	runs := goldenRuns(corpus, regionCorpus)
	if !update {
		if err := checkGoldenCorpus(runs, corpus, regionCorpus); err != nil {
			return nil, err
		}
	}
	m := NewModel().Parallelism(parallelism)
	replayed, drifted := 0, 0
	for i := range runs {
		r := &runs[i]
		ds, err := GenerateDataset(ctx, WithSeed(r.Seed), WithScale(r.Scale),
			WithRegion(r.Region), WithParallelism(parallelism))
		if err != nil {
			return nil, err
		}
		cfg := golden.Config{Seed: r.Seed, Scale: r.Scale}
		for j := range r.Cases {
			c := &r.Cases[j]
			exp, ok := m.ExperimentByName(c.Experiment)
			if !ok {
				return nil, fmt.Errorf("leodivide: experiment %q vanished from the model", c.Experiment)
			}
			v, err := exp.Run(ctx, ds)
			if err != nil {
				return nil, fmt.Errorf("leodivide: run %s on %s: %w", c.Experiment, r.Region, err)
			}
			if update {
				if err := golden.WriteFile(ctx, c.File, v); err != nil {
					return nil, err
				}
				continue
			}
			got, err := golden.Encode(v)
			if err != nil {
				return nil, err
			}
			want, err := golden.ReadFile(c.File)
			if err != nil {
				return nil, err
			}
			if c.Diffs, err = golden.Compare(got, want, golden.Default()); err != nil {
				return nil, fmt.Errorf("leodivide: compare %s: %w", c.File, err)
			}
			replayed++
			if len(c.Diffs) > 0 {
				drifted++
				label := c.Experiment
				if r.Region != region.DefaultKey {
					label += "[" + r.Region + "]"
				}
				golden.WriteDiffs(w, label, cfg, c.Diffs, maxDiffs)
			}
		}
		fmt.Fprintf(w, "verify: region %s seed=%d scale=%s: %d experiments replayed\n",
			r.Region, r.Seed, golden.FormatScale(r.Scale), len(r.Cases))
	}
	if drifted > 0 {
		return runs, fmt.Errorf("leodivide: %d of %d golden replays drifted from the corpus (if intended, %s and justify the diff)",
			drifted, replayed, goldenRegenerate)
	}
	if !update {
		fmt.Fprintf(w, "verify: OK — %d experiment replays match the golden corpus\n", replayed)
	}
	return runs, nil
}

// checkGoldenCorpus requires the corpus roots to hold exactly the runs'
// files. A missing file is reported at its highest missing directory,
// so a deleted (seed, scale) directory or region corpus is named as
// such.
func checkGoldenCorpus(runs []GoldenRun, roots ...string) error {
	want := make(map[string]bool)
	for _, r := range runs {
		for _, c := range r.Cases {
			want[c.File] = true
		}
	}
	for _, root := range roots {
		if root == "" {
			continue
		}
		found := 0
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !want[path] {
				return fmt.Errorf("leodivide: golden corpus has stray file %s (delete it)", path)
			}
			delete(want, path)
			found++
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if found == 0 {
			return fmt.Errorf("leodivide: golden corpus %s is empty (%s)", root, goldenRegenerate)
		}
	}
	for _, r := range runs {
		for _, c := range r.Cases {
			if !want[c.File] {
				continue
			}
			missing := c.File
			for dir := filepath.Dir(missing); ; dir = filepath.Dir(dir) {
				if _, err := os.Stat(dir); err == nil {
					break
				}
				missing = dir
			}
			return fmt.Errorf("leodivide: golden corpus is missing %s (%s)", missing, goldenRegenerate)
		}
	}
	return nil
}
