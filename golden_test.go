package leodivide

// The golden-corpus regression gate, through the same VerifyGolden that
// `leodivide verify` runs. Regenerate both corpora after an intentional
// model change with:
//
//	go test -run TestGoldenCorpus -update .
//
// and review the corpus diff like any other code change: the diff IS
// the semantic change, and it must be justified against the paper's
// anchors in the PR description.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"testing"

	"leodivide/internal/golden"
	"leodivide/internal/region"
)

var update = flag.Bool("update", false, "rewrite the golden corpora from the current implementation")

const (
	goldenRoot       = "testdata/golden"
	goldenRegionRoot = "testdata/golden-regions"
)

// TestGoldenCorpus replays both committed corpora, one subtest per
// (region, seed, scale) run and experiment.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus replay is not a -short test")
	}
	runs, err := VerifyGolden(context.Background(), io.Discard,
		goldenRoot, goldenRegionRoot, 0, 0, *update)
	for _, r := range runs {
		name := fmt.Sprintf("seed=%d/scale=%s", r.Seed, golden.FormatScale(r.Scale))
		if r.Region != region.DefaultKey {
			name = r.Region + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			for _, c := range r.Cases {
				t.Run(c.Experiment, func(t *testing.T) {
					for _, d := range c.Diffs {
						t.Errorf("%s drifted at %s", c.File, d)
					}
				})
			}
		})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCorpusCoversRegistry pins the main corpus to the registry
// under VerifyGolden's completeness rule: a file for every experiment in
// every (seed, scale) directory, and none for an experiment that no
// longer exists. Unlike the replay it runs under -short.
func TestGoldenCorpusCoversRegistry(t *testing.T) {
	if *update {
		t.Skip("corpus being rewritten")
	}
	runs := goldenRuns(goldenRoot, "")
	registry := NewModel().Experiments()
	for _, r := range runs {
		if len(r.Cases) != len(registry) {
			t.Errorf("seed=%d scale=%s: %d cases, registry has %d experiments",
				r.Seed, golden.FormatScale(r.Scale), len(r.Cases), len(registry))
		}
	}
	if err := checkGoldenCorpus(runs, goldenRoot); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRegionCorpus pins the per-region corpus to the region list
// under the same completeness rule: findings for every non-default
// region at every (seed, scale), and no stray region or file. Unlike the
// replay it runs under -short.
func TestGoldenRegionCorpus(t *testing.T) {
	if *update {
		t.Skip("corpus being rewritten")
	}
	var runs []GoldenRun
	regions := make(map[string]bool)
	for _, r := range goldenRuns(goldenRoot, goldenRegionRoot) {
		if r.Region != region.DefaultKey {
			runs = append(runs, r)
			regions[r.Region] = true
		}
	}
	for _, key := range region.Names() {
		if key != region.DefaultKey && !regions[key] {
			t.Errorf("region %s has no golden runs", key)
		}
	}
	if err := checkGoldenCorpus(runs, goldenRegionRoot); err != nil {
		t.Fatal(err)
	}
}
