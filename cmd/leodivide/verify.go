package main

// `leodivide verify` replays the committed golden corpus against the
// current binary and exits nonzero on drift. It runs the same
// leodivide.VerifyGolden as TestGoldenCorpus: CI runs it next to the
// bench job, and a developer can run it locally before sending a
// refactor to confirm no experiment's numbers moved.
//
//	leodivide verify                      # replay testdata/golden + testdata/golden-regions
//	leodivide -parallelism 1 verify       # replay on the serial path
//	leodivide verify -corpus other/dir    # replay an alternate corpus
//	leodivide verify -region-corpus ""    # skip the per-region findings replay
//
// The replay intentionally ignores the global -seed/-scale/-calibrated
// flags: the corpus fixes its own seeds and scales and is frozen under
// the default (uncalibrated) model, so honoring those flags would
// compare apples to oranges. -parallelism is honored — drift that
// appears only at some worker count is exactly the kind of bug the gate
// exists to catch.

import (
	"context"
	"flag"
	"io"

	"leodivide"
)

func runVerify(ctx context.Context, w io.Writer, global leodivide.RunConfig, args []string) error {
	fs := flag.NewFlagSet("leodivide verify", flag.ContinueOnError)
	corpus := fs.String("corpus", "testdata/golden", "golden corpus root directory")
	regionCorpus := fs.String("region-corpus", "testdata/golden-regions",
		"per-region findings corpus root (empty to skip)")
	maxDiffs := fs.Int("max-diffs", 10, "maximum field diffs to print per experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, err := leodivide.VerifyGolden(ctx, w, *corpus, *regionCorpus, global.Parallelism, *maxDiffs, false)
	return err
}
