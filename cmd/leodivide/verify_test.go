package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoCorpus is the committed golden corpus relative to this package;
// repoRegionCorpus the committed per-region findings corpus.
const (
	repoCorpus       = "../../testdata/golden"
	repoRegionCorpus = "../../testdata/golden-regions"
)

func TestVerifyPassesOnCommittedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus replay is not a -short test")
	}
	var buf bytes.Buffer
	if err := run([]string{"verify", "-corpus", repoCorpus, "-region-corpus", repoRegionCorpus}, &buf); err != nil {
		t.Fatalf("verify on committed corpus: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "verify: OK") {
		t.Errorf("output missing OK line:\n%s", out)
	}
	if !strings.Contains(out, "64 experiment replays match") {
		t.Errorf("output missing replay count:\n%s", out)
	}
	for _, want := range []string{"region brazil-rural", "region taipei-dense"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q replay line:\n%s", want, out)
		}
	}
}

// copyCorpora copies both committed corpora into a fresh directory so
// a test can mutate them without touching the repository's.
func copyCorpora(t *testing.T) (corpus, regionCorpus string) {
	t.Helper()
	dst := t.TempDir()
	for _, src := range []string{repoCorpus, repoRegionCorpus} {
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			to := filepath.Join(dst, strings.TrimPrefix(path, "../../"))
			if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
				return err
			}
			return os.WriteFile(to, b, 0o644)
		})
		if err != nil {
			t.Fatalf("copy committed corpus: %v", err)
		}
	}
	return filepath.Join(dst, "testdata", "golden"), filepath.Join(dst, "testdata", "golden-regions")
}

// mutate rewrites the first occurrence of field in a frozen file so
// its value gains a leading 9.
func mutate(t *testing.T, path, field string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(b), `"`+field+`": `, `"`+field+`": 9`, 1)
	if mutated == string(b) {
		t.Fatalf("%s has no %s field to mutate:\n%s", path, field, b)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyFailsOnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not a -short test")
	}
	corpus, regionCorpus := copyCorpora(t)
	mutate(t, filepath.Join(corpus, "1", "0.02", "fig1.json"), "MaxCell")

	var buf bytes.Buffer
	err := run([]string{"verify", "-corpus", corpus, "-region-corpus", regionCorpus}, &buf)
	if err == nil {
		t.Fatalf("verify must fail on a mutated corpus; output:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "1 of 64 golden replays drifted") {
		t.Errorf("error %q does not count the one drift", err)
	}
	out := buf.String()
	// The drift report names the experiment, the config and the field path.
	for _, want := range []string{"fig1", "seed=1", "scale=0.02", "/MaxCell"} {
		if !strings.Contains(out, want) {
			t.Errorf("drift report missing %q:\n%s", want, out)
		}
	}
}

// TestVerifyFailsOnIncompleteCorpus: the corpus must hold exactly the
// expected files, and each way of breaking that fails before any
// replay, naming what is wrong.
func TestVerifyFailsOnIncompleteCorpus(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(corpus, regionCorpus string) error
		want    string
	}{
		{"missing file", func(c, _ string) error {
			return os.Remove(filepath.Join(c, "1", "0.02", "table2.json"))
		}, filepath.Join("1", "0.02", "table2.json")},
		{"stray file", func(c, _ string) error {
			return os.WriteFile(filepath.Join(c, "2", "0.05", "retired.json"), []byte("{}\n"), 0o644)
		}, "stray file"},
		{"missing config", func(c, _ string) error {
			return os.RemoveAll(filepath.Join(c, "2", "0.05"))
		}, filepath.Join("golden", "2", "0.05") + " ("},
		{"missing region corpus", func(_, r string) error {
			return os.RemoveAll(filepath.Join(r, "taipei-dense"))
		}, filepath.Join("golden-regions", "taipei-dense") + " ("},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corpus, regionCorpus := copyCorpora(t)
			if err := tc.corrupt(corpus, regionCorpus); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			err := run([]string{"verify", "-corpus", corpus, "-region-corpus", regionCorpus}, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error containing %q", err, tc.want)
			}
			if buf.Len() != 0 {
				t.Errorf("incomplete corpus must fail before replaying; output:\n%s", buf.String())
			}
		})
	}
}

// TestVerifyFailsOnRegionDrift mutates one frozen per-region finding
// and expects the replay to fail naming the region.
func TestVerifyFailsOnRegionDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not a -short test")
	}
	corpus, regionCorpus := copyCorpora(t)
	mutate(t, filepath.Join(regionCorpus, "brazil-rural", "1", "0.02", "findings.json"), "TotalLocations")

	var buf bytes.Buffer
	err := run([]string{"verify", "-corpus", corpus, "-region-corpus", regionCorpus}, &buf)
	if err == nil {
		t.Fatalf("verify must fail on a mutated region corpus; output:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "drifted") {
		t.Errorf("error %q does not mention drift", err)
	}
	if !strings.Contains(buf.String(), "findings[brazil-rural]") {
		t.Errorf("drift report does not name the drifted region:\n%s", buf.String())
	}
}

func TestVerifyFailsOnEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"verify", "-corpus", t.TempDir()}, &buf)
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty corpus must fail, got %v", err)
	}
}

func TestVerifyBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"verify", "-no-such-flag"}, &buf); err == nil {
		t.Error("unknown verify flag must error")
	}
}
