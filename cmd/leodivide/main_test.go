package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leodivide/internal/obs"
	"leodivide/internal/safeio"
)

// runCmd invokes the CLI entry point with a small-scale dataset so the
// whole command matrix stays fast.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	full := append([]string{"-scale", "0.05"}, args...)
	if err := run(full, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestFig1Command(t *testing.T) {
	out := runCmd(t, "fig1")
	for _, want := range []string{"Figure 1", "max locations/cell", "# series"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestTable1Command(t *testing.T) {
	out := runCmd(t, "table1")
	for _, want := range []string{"Table 1", "3850", "17.3", "100/20"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2Command(t *testing.T) {
	out := runCmd(t, "table2")
	for _, want := range []string{"Table 2", "beamspread", "79287"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestTable2Calibrated(t *testing.T) {
	out := runCmd(t, "-calibrated", "table2")
	if !strings.Contains(out, "Table 2") {
		t.Error("calibrated table2 failed")
	}
}

func TestFig2Command(t *testing.T) {
	out := runCmd(t, "fig2")
	if !strings.Contains(out, "Figure 2") {
		t.Error("fig2 output missing title")
	}
}

func TestFig3Command(t *testing.T) {
	out := runCmd(t, "fig3")
	for _, want := range []string{"Figure 3", "additional satellites"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

// TestSimCheckHonorsParallelism requires simcheck's stdout to be
// identical at -parallelism 1 and 0, every worker pool of the serial
// run, the simulator's included, to run on one worker, and every sweep
// to nest under a span (generation's or simcheck's) rather than
// surface as a root.
func TestSimCheckHonorsParallelism(t *testing.T) {
	rc := &obs.RecordingCollector{}
	restore := obs.SetCollector(rc)
	serial := runCmd(t, "-parallelism", "1", "simcheck")
	restore()
	sweeps := 0
	for _, s := range rc.Spans() {
		if s.Name != "par.sweep" {
			continue
		}
		sweeps++
		if s.Parent == nil {
			t.Fatalf("par.sweep %v is a root span", s.Attrs)
		}
		for _, a := range s.Attrs {
			if a.Key == "workers" && a.Value != "1" {
				t.Fatalf("par.sweep %v ran on %s workers under -parallelism 1", s.Attrs, a.Value)
			}
		}
	}
	if sweeps == 0 {
		t.Fatal("no par.sweep spans recorded")
	}
	if pooled := runCmd(t, "-parallelism", "0", "simcheck"); pooled != serial {
		t.Errorf("simcheck stdout differs between -parallelism 1 and 0:\n%s\nvs\n%s", serial, pooled)
	}
}

func TestStatesRejectsOtherRegions(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.05", "-region", "brazil-rural", "states"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "brazil-rural") {
		t.Errorf("states on brazil-rural: got %v, want an error naming the region", err)
	}
	if buf.Len() != 0 {
		t.Errorf("states on brazil-rural printed:\n%s", buf.String())
	}
}

func TestFig4Command(t *testing.T) {
	out := runCmd(t, "fig4")
	for _, want := range []string{"Figure 4", "Starlink Residential", "Lifeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestFindingsCommand(t *testing.T) {
	out := runCmd(t, "findings")
	for _, want := range []string{"F1:", "F2:", "F3:", "F4:"} {
		if !strings.Contains(out, want) {
			t.Errorf("findings output missing %q", want)
		}
	}
}

func TestAblateCommand(t *testing.T) {
	out := runCmd(t, "ablate")
	for _, want := range []string{"Ablation", "baseline", "all-cells binding"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablate output missing %q", want)
		}
	}
}

func TestGenCommand(t *testing.T) {
	out := runCmd(t, "gen")
	if !strings.Contains(out, "cell_id,latitude,longitude,county_fips,unserved_locations") {
		t.Error("gen output missing cell CSV header")
	}
	lines := strings.Count(out, "\n")
	if lines < 500 {
		t.Errorf("gen produced only %d lines", lines)
	}
}

func TestGenLocationsCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "locs.csv")
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.02", "-locations-csv", path, "-locations-scale", "0.01", "gen"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"nonsense"}, &buf); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{}, &buf); err == nil {
		t.Error("missing command should fail")
	}
}

func TestBadScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0", "fig1"}, &buf); err == nil {
		t.Error("scale 0 should fail")
	}
}

func TestFleetsCommand(t *testing.T) {
	out := runCmd(t, "fleets")
	for _, want := range []string{"Starlink Gen1", "Starlink Gen2", "coverage ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleets output missing %q", want)
		}
	}
}

func TestRefinedCommand(t *testing.T) {
	out := runCmd(t, "refined")
	for _, want := range []string{"Refined affordability", "median-only", "Lifeline eligibility"} {
		if !strings.Contains(out, want) {
			t.Errorf("refined output missing %q", want)
		}
	}
}

func TestStatesCommand(t *testing.T) {
	out := runCmd(t, "states")
	for _, want := range []string{"State report card", "oversub needed", "capacity-stressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("states output missing %q", want)
		}
	}
}

func TestLatencyCommand(t *testing.T) {
	out := runCmd(t, "latency")
	for _, want := range []string{"Latency geometry", "GEO", "Doppler"} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q", want)
		}
	}
}

func TestExportCommand(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-dir", dir, "export"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cells.geojson", "cells.csv", "gateways.geojson"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing export %s: %v", name, err)
		}
	}
}

// TestExportReportsWriteFailures: report/export artifacts are written
// through safeio, so an injected write error, short write, or close
// failure on any output file must fail the export command instead of
// leaving a truncated artifact behind a nil error.
func TestExportReportsWriteFailures(t *testing.T) {
	boom := errors.New("disk full")
	for _, mode := range []struct {
		name    string
		install func() func()
	}{
		{"write error", func() func() {
			return safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
				if filepath.Base(path) == "fig1_cdf.csv" {
					return &safeio.FaultWriter{W: w, FailAfter: 8, Err: boom}
				}
				return w
			})
		}},
		{"short write", func() func() {
			return safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
				if filepath.Base(path) == "cells.geojson" {
					return &safeio.FaultWriter{W: w, FailAfter: 8, Short: true}
				}
				return w
			})
		}},
		{"close failure", func() func() {
			return safeio.SetCloseFault(func(path string) error {
				if strings.HasPrefix(filepath.Base(path), "cells.csv") {
					return boom
				}
				return nil
			})
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer mode.install()()
			var buf bytes.Buffer
			if err := run([]string{"-scale", "0.02", "-dir", t.TempDir(), "export"}, &buf); err == nil {
				t.Error("export swallowed the injected write failure")
			}
		})
	}
}

func TestGenLocationsCSVWriteFailure(t *testing.T) {
	boom := errors.New("disk full")
	defer safeio.SetWriteFault(func(path string, w io.Writer) io.Writer {
		return &safeio.FaultWriter{W: w, FailAfter: 32, Err: boom}
	})()
	locCSV := filepath.Join(t.TempDir(), "locations.csv")
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.02", "-locations-csv", locCSV, "gen"}, &buf)
	if !errors.Is(err, boom) {
		t.Errorf("gen error = %v, want %v", err, boom)
	}
	if _, statErr := os.Stat(locCSV); !os.IsNotExist(statErr) {
		t.Error("failed gen left a locations.csv behind")
	}
}

func TestBusyHourCommand(t *testing.T) {
	out := runCmd(t, "busyhour")
	for _, want := range []string{"Busy hour", "peak-to-mean", "per-location throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("busyhour output missing %q", want)
		}
	}
}

func TestEconCommand(t *testing.T) {
	out := runCmd(t, "econ")
	for _, want := range []string{"Constellation economics", "capex", "diminishing-returns tail"} {
		if !strings.Contains(out, want) {
			t.Errorf("econ output missing %q", want)
		}
	}
}

func TestCostCurveCommand(t *testing.T) {
	out := runCmd(t, "costcurve")
	for _, want := range []string{"Cost curve", "Starlink Gen1", "Kuiper", "OneWeb", "$/loc/month"} {
		if !strings.Contains(out, want) {
			t.Errorf("costcurve output missing %q", want)
		}
	}
}

func TestXConstCommand(t *testing.T) {
	out := runCmd(t, "xconst")
	for _, want := range []string{"Cross-constellation", "Starlink Gen2", "Kuiper", "cheapest serving system"} {
		if !strings.Contains(out, want) {
			t.Errorf("xconst output missing %q", want)
		}
	}
}

// The -scenario flag is the HTTP wire contract on the CLI: a request
// body selects the experiment, constellation and knobs, and the
// command argument becomes optional.
func TestScenarioFlag(t *testing.T) {
	out := runCmd(t, "-scenario", `{"experiment":"xconst","constellation":"kuiper","max_oversub":25}`)
	if !strings.Contains(out, "Cross-constellation") || !strings.Contains(out, "25:1 cap") {
		t.Errorf("scenario-driven xconst output wrong:\n%.400s", out)
	}

	// The scenario's experiment and an explicit command argument must
	// agree; disagreement is an error, not a silent preference.
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.05", "-scenario", `{"experiment":"table2"}`, "fig1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting command and scenario experiment returned %v, want conflict error", err)
	}

	// Unknown constellation and malformed JSON fail up front.
	if err := run([]string{"-scenario", `{"experiment":"table2","constellation":"iridium"}`}, &buf); err == nil {
		t.Error("unknown constellation in -scenario should fail")
	}
	if err := run([]string{"-scenario", `{"experiment":`}, &buf); err == nil {
		t.Error("malformed -scenario JSON should fail")
	}

	// A scenario scale override beats the shorthand flag: the pointer
	// fields round-trip the exact dataset identity.
	var buf2 bytes.Buffer
	if err := run([]string{"-scale", "0.02", "-scenario", `{"experiment":"table2","scale":0.05}`}, &buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "79287") {
		t.Errorf("scenario scale override did not reproduce the 0.05-scale table2 anchor:\n%.400s", buf2.String())
	}
}

func TestAllCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	out := runCmd(t, "all")
	for _, want := range []string{
		"Figure 1", "Table 1", "Table 2", "Figure 2", "Figure 3",
		"Figure 4", "F1:", "Simulator cross-check", "Ablation",
		"Starlink Gen2", "Refined affordability", "Link budget",
		"State report card", "Latency geometry", "Busy hour",
		"Constellation economics", "Cost curve", "Cross-constellation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

func TestExportFigureCSVs(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-dir", dir, "export"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1_cdf.csv", "fig2_grid.csv", "fig3_curves.csv", "fig4_curves.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(data) < 100 {
			t.Errorf("%s implausibly small (%d bytes)", name, len(data))
		}
	}
}
