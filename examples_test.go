package leodivide

// Bitrot guard for the examples/ programs. Each example is a main
// package of this module, so `go build ./...` and `go vet ./...`
// already compile it; this test also vets and runs every one, so an
// example that compiles but fails or prints nothing fails `go test`.

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

func exampleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatalf("reading examples/: %v", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		t.Fatal("no example directories found")
	}
	return dirs
}

func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	return path
}

func TestExamplesVet(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example vet in -short mode")
	}
	out, err := exec.Command(goTool(t), "vet", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet ./examples/...: %v\n%s", err, out)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example runs in -short mode")
	}
	gobin := goTool(t)
	for _, dir := range exampleDirs(t) {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(gobin, "run", "./"+filepath.Join("examples", dir))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", dir)
			}
		})
	}
}
