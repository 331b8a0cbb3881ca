package perfbench

import (
	"bytes"
	"encoding/json"
	"testing"

	"leodivide"
	"leodivide/internal/region"
)

func TestHotSetCoversRegistryTimesVariants(t *testing.T) {
	set := HotSet()
	exps := leodivide.NewModel().Experiments()
	if len(set) != len(exps)*len(hotVariants) {
		t.Fatalf("hot set has %d scenarios, want %d", len(set), len(exps)*len(hotVariants))
	}
	base := leodivide.DefaultScenarioConfig("")
	seen := map[string]bool{}
	for _, req := range set {
		key, err := ToConfig(base, req).CanonicalKey()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if seen[key] {
			t.Errorf("duplicate hot key %s", key)
		}
		seen[key] = true
	}
}

func TestHotSequenceDeterministic(t *testing.T) {
	a, b := HotSequence(7, 5000, 112), HotSequence(7, 5000, 112)
	other := HotSequence(8, 5000, 112)
	same := true
	counts := make([]int, 112)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != other[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= 112 {
			t.Fatalf("index %d out of range", a[i])
		}
		counts[a[i]]++
	}
	if same {
		t.Error("seeds 7 and 8 drew identical sequences")
	}
	// Zipf: rank 0 is the most popular key.
	for k, c := range counts {
		if c > counts[0] {
			t.Errorf("key %d drawn %d times, more than rank 0 (%d)", k, c, counts[0])
		}
	}
}

// TestSweepDeterministicAndDistinct: the same seed gives the same
// request bodies, and every key of one sweep is new.
func TestSweepDeterministicAndDistinct(t *testing.T) {
	base := leodivide.DefaultScenarioConfig("")
	base.Seed = 3
	a, b := NewSweep(11, base), NewSweep(11, base)
	keys := map[string]bool{}
	experiments := map[string]bool{}
	const n = 2000
	for i := 0; i < n; i++ {
		ra, ka, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, kb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		ba, err := json.Marshal(ra)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(rb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) || ka != kb {
			t.Fatalf("request %d differs between two sweeps of one seed:\n%s\n%s", i, ba, bb)
		}
		if keys[ka] {
			t.Fatalf("request %d repeats key %s", i, ka)
		}
		keys[ka] = true
		experiments[ra.Experiment] = true
		parsed, err := leodivide.ParseScenarioRequest(ba)
		if err != nil {
			t.Fatalf("request %d body does not parse: %v", i, err)
		}
		if pk, err := ToConfig(base, parsed).CanonicalKey(); err != nil || pk != ka {
			t.Fatalf("request %d key after a wire round trip = %q (%v), want %q", i, pk, err, ka)
		}
	}
	for _, e := range sweepExperiments {
		if !experiments[e] {
			t.Errorf("sweep never drew %s", e)
		}
	}
	if experiments["busyhour"] || experiments["xregion"] {
		t.Error("sweep drew an experiment it leaves out")
	}
	other := NewSweep(12, base)
	r, _, err := other.Next()
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := NewSweep(11, base).Next()
	if err != nil {
		t.Fatal(err)
	}
	bo, _ := json.Marshal(r)
	bf, _ := json.Marshal(first)
	if bytes.Equal(bo, bf) {
		t.Error("seeds 11 and 12 drew the same first request")
	}
}

func TestSampledRate(t *testing.T) {
	const n, every = 64000, 64
	hits := 0
	for i := 0; i < n; i++ {
		if Sampled(5, i, every) {
			hits++
		}
		if Sampled(5, i, every) != Sampled(5, i, every) {
			t.Fatal("Sampled is not deterministic")
		}
	}
	if want := n / every; hits < want/2 || hits > want*2 {
		t.Errorf("sampled %d of %d, want about %d", hits, n, want)
	}
}

// TestSweepBlocks: every block of draws holds each (experiment, region)
// pair once.
func TestSweepBlocks(t *testing.T) {
	sw := NewSweep(4, leodivide.DefaultScenarioConfig(""))
	pairs := len(sweepExperiments) * len(region.Names())
	for b := 0; b < 20; b++ {
		seen := map[string]bool{}
		for i := 0; i < pairs; i++ {
			req, _, err := sw.Next()
			if err != nil {
				t.Fatal(err)
			}
			pair := req.Experiment + "/" + req.Region
			if seen[pair] {
				t.Fatalf("block %d repeats %s", b, pair)
			}
			seen[pair] = true
		}
	}
}
