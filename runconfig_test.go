package leodivide

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestRunConfigEquivalence: the unified option set must build exactly
// what the underlying constructors build, so the CLI and bench surfaces
// cannot drift from library use.
func TestRunConfigEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultRunConfig()
	cfg.Seed = 7
	cfg.Scale = 0.02
	cfg.Parallelism = 2
	cfg.Calibrated = true

	m := cfg.BuildModel()
	want := NewModel().Parallelism(2).Calibrated()
	if !reflect.DeepEqual(m, want) {
		t.Errorf("BuildModel = %+v, want %+v", m, want)
	}
	if m.Capacity.Parallelism != 2 {
		t.Errorf("BuildModel worker bound = %d, want 2", m.Capacity.Parallelism)
	}

	ds, err := cfg.Generate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := GenerateDataset(ctx, WithSeed(7), WithScale(0.02), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Cells, direct.Cells) {
		t.Error("RunConfig.Generate produced different cells than GenerateDataset with the same options")
	}
	if ds.Seed != direct.Seed || ds.Resolution != direct.Resolution {
		t.Error("RunConfig.Generate metadata differs from GenerateDataset")
	}
}

func TestRunConfigValidate(t *testing.T) {
	cfg := DefaultRunConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// NaN is the regression case: it fails both sides of the (0,1] range
	// comparison, so a plain range check lets it through.
	for _, bad := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := cfg
		c.Scale = bad
		if err := c.Validate(); err == nil {
			t.Errorf("scale %v should be invalid", bad)
		}
		if _, err := c.Generate(context.Background()); err == nil {
			t.Errorf("Generate with scale %v should fail", bad)
		}
	}
	neg := cfg
	neg.Parallelism = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative parallelism should be invalid")
	}
}

// TestRunConfigString: the canonical human rendering every log line
// shares (bench, verify, serve). Scale formats exactly as it does in
// golden corpus paths and scenario cache keys.
func TestRunConfigString(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Seed = 7
	cfg.Scale = 0.02
	if got, want := cfg.String(), "seed=7 scale=0.02 parallelism=0 calibrated=false"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	cfg.Scale = 1
	cfg.Parallelism = 4
	cfg.Calibrated = true
	if got, want := cfg.String(), "seed=7 scale=1 parallelism=4 calibrated=true"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRunAs: the typed accessor returns concrete results without the
// caller type-switching on any.
func TestRunAs(t *testing.T) {
	ctx := context.Background()
	ds := fullDataset(t)
	m := NewModel()

	t2, err := RunAs[Table2Result](ctx, m, ds, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != len(PaperTable2Spreads) {
		t.Errorf("table2 rows = %d, want %d", len(t2.Rows), len(PaperTable2Spreads))
	}

	if _, err := RunAs[Fig1Result](ctx, m, ds, "table2"); err == nil {
		t.Error("RunAs with the wrong type parameter should fail")
	} else if !strings.Contains(err.Error(), "Table2Result") {
		t.Errorf("type mismatch error should name the actual type, got: %v", err)
	}

	if _, err := RunAs[Fig1Result](ctx, m, ds, "no-such-experiment"); err == nil {
		t.Error("RunAs with an unknown name should fail")
	}
}

// TestRegistryCancellationContract: with an already-cancelled context,
// every registry runner must return ctx.Err() before touching the
// dataset — proven by passing a nil dataset, which would panic if any
// runner dereferenced it first.
func TestRegistryCancellationContract(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exp := range NewModel().Experiments() {
		v, err := exp.Run(ctx, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("experiment %q with cancelled ctx: err = %v, want context.Canceled", exp.Name, err)
		}
		if v != nil {
			t.Errorf("experiment %q with cancelled ctx returned a result: %v", exp.Name, v)
		}
	}
}
