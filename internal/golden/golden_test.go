package golden

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeCanonical(t *testing.T) {
	type inner struct{ B, A float64 }
	v := struct {
		Z map[string]int
		S []inner
	}{
		Z: map[string]int{"b": 2, "a": 1},
		S: []inner{{B: 1.5, A: 0.25}},
	}
	first, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("encoding not stable:\n%s\nvs\n%s", first, again)
		}
	}
	if !strings.HasSuffix(string(first), "\n") {
		t.Error("encoding must end in a newline")
	}
	// Map keys are sorted: "a" must precede "b".
	if strings.Index(string(first), `"a"`) > strings.Index(string(first), `"b"`) {
		t.Errorf("map keys not sorted:\n%s", first)
	}
}

func TestCompareEqual(t *testing.T) {
	a := []byte(`{"x": 1, "y": [1.5, 2.5], "s": "ok", "b": true, "n": null}`)
	diffs, err := Compare(a, a, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("self-compare produced diffs: %v", diffs)
	}
}

func TestCompareFieldDiffs(t *testing.T) {
	want := []byte(`{"Rows": [{"Sats": 100, "Spread": 2}], "Name": "t2", "Frac": 0.25}`)
	got := []byte(`{"Rows": [{"Sats": 101, "Spread": 2}], "Name": "t2", "Frac": 0.25}`)
	diffs, err := Compare(got, want, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1: %v", len(diffs), diffs)
	}
	d := diffs[0]
	if d.Path != "/Rows/0/Sats" {
		t.Errorf("diff path = %q, want /Rows/0/Sats", d.Path)
	}
	if d.Got != "101" || d.Want != "100" {
		t.Errorf("diff values = %q/%q, want 101/100", d.Got, d.Want)
	}
	if !strings.Contains(d.String(), "/Rows/0/Sats") {
		t.Errorf("diff string %q does not name the path", d.String())
	}
}

func TestCompareTolerance(t *testing.T) {
	want := []byte(`{"f": 1.0, "g": 2.0}`)
	got := []byte(`{"f": 1.0000000001, "g": 2.1}`)
	// Within 1e-9 relative: f passes, g fails.
	diffs, err := Compare(got, want, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || diffs[0].Path != "/g" {
		t.Fatalf("diffs = %v, want exactly /g", diffs)
	}
	// A per-field rule can loosen g.
	tol := Default()
	tol.Rules = []Rule{{Path: "/g", Rel: 0.1}}
	diffs, err = Compare(got, want, tol)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("rule did not apply: %v", diffs)
	}
	// Exact tolerance rejects even the 1e-10 drift.
	diffs, err = Compare(got, want, Exact())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("exact compare found %d diffs, want 2", len(diffs))
	}
}

func TestCompareStructural(t *testing.T) {
	cases := []struct {
		name      string
		got, want string
		paths     []string
	}{
		{"missing key", `{"a": 1}`, `{"a": 1, "b": 2}`, []string{"/b"}},
		{"extra key", `{"a": 1, "b": 2}`, `{"a": 1}`, []string{"/b"}},
		{"type change", `{"a": "1"}`, `{"a": 1}`, []string{"/a"}},
		{"array length", `[1, 2, 3]`, `[1, 2]`, []string{""}},
		{"array shorter with prefix diff", `[1]`, `[9, 2]`, []string{"", "/0"}},
		{"string", `{"s": "x"}`, `{"s": "y"}`, []string{"/s"}},
		{"bool", `{"b": true}`, `{"b": false}`, []string{"/b"}},
		{"null vs value", `{"n": null}`, `{"n": 0}`, []string{"/n"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffs, err := Compare([]byte(tc.got), []byte(tc.want), Default())
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != len(tc.paths) {
				t.Fatalf("got %d diffs %v, want paths %v", len(diffs), diffs, tc.paths)
			}
			for i, p := range tc.paths {
				if diffs[i].Path != p {
					t.Errorf("diff %d path = %q, want %q", i, diffs[i].Path, p)
				}
			}
		})
	}
}

func TestCompareParseErrors(t *testing.T) {
	if _, err := Compare([]byte("{"), []byte("{}"), Default()); err == nil {
		t.Error("invalid replay JSON must error")
	}
	if _, err := Compare([]byte("{}"), []byte("{"), Default()); err == nil {
		t.Error("invalid corpus JSON must error")
	}
}

func TestPathMatch(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"/a/b", "/a/b", true},
		{"/a/*", "/a/b", true},
		{"/*/b", "/a/b", true},
		{"/a/*", "/a/b/c", false},
		{"/a", "/a/b", false},
		{"/Fraction/*/*", "/Fraction/3/2", true},
	}
	for _, tc := range cases {
		if got := pathMatch(tc.pattern, tc.path); got != tc.want {
			t.Errorf("pathMatch(%q, %q) = %v, want %v", tc.pattern, tc.path, got, tc.want)
		}
	}
}

func TestCorpusLayoutRoundTrip(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	type result struct {
		N int
		F float64
	}
	if err := WriteFile(ctx, File(root, 1, 0.02, "table2"), result{N: 5, F: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, File(root, 1, 0.05, "table2"), result{N: 6, F: 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, File(root, 2, 0.02, "fig1"), result{N: 7, F: 0.7}); err != nil {
		t.Fatal(err)
	}

	configs, err := Configs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 3 {
		t.Fatalf("got %d configs, want 3: %+v", len(configs), configs)
	}
	// Sorted by (seed, scale).
	if configs[0].Seed != 1 || configs[0].Scale != 0.02 ||
		configs[1].Seed != 1 || configs[1].Scale != 0.05 ||
		configs[2].Seed != 2 || configs[2].Scale != 0.02 {
		t.Fatalf("configs out of order: %+v", configs)
	}

	// The frozen file compares clean against a fresh encoding.
	frozen, err := ReadFile(File(root, 1, 0.02, "table2"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Encode(result{N: 5, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := Compare(fresh, frozen, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("round trip drifted: %v", diffs)
	}
}

func TestConfigsRejectsStrayEntries(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "notaseed", "0.02"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Configs(root); err == nil {
		t.Error("non-numeric seed directory must error")
	}

	root2 := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root2, "1", "huge"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Configs(root2); err == nil {
		t.Error("non-numeric scale directory must error")
	}

	root3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(root3, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Configs(root3); err == nil {
		t.Error("stray file in corpus root must error")
	}
}

func TestFormatScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		want  string
	}{{0.02, "0.02"}, {0.05, "0.05"}, {1, "1"}, {0.125, "0.125"}} {
		if got := FormatScale(tc.scale); got != tc.want {
			t.Errorf("FormatScale(%v) = %q, want %q", tc.scale, got, tc.want)
		}
	}
}
