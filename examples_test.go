package tota_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun executes every directory under examples/ end-to-end
// with `go run`, keeping the documentation honest: an example that
// stops compiling or starts erroring fails the suite, and a new example
// runs without being listed anywhere. Skipped in -short mode (each run
// pays a compile).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in short mode")
	}
	paths, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			names = append(names, filepath.Base(p))
		}
	}
	if len(names) == 0 {
		t.Fatal("no examples found under examples/")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s printed nothing", name)
			}
		})
	}
}
