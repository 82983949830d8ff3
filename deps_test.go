package edgedrift_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLibraryDependencyBoundary pins the deployed library's link
// closure: the packages a device or serve-tier binary links must not
// pull in the evaluation harness — the experiment runner, the dataset
// generators, the baseline detectors, the device cost model or the
// stream replay helpers. Those belong to driftbench and the tests.
func TestLibraryDependencyBoundary(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	forbidden := []string{
		"edgedrift/internal/eval",
		"edgedrift/internal/datasets",
		"edgedrift/internal/detectors",
		"edgedrift/internal/device",
		"edgedrift/internal/stream",
	}
	for _, pkg := range []string{".", "./internal/fleet", "./internal/shard", "./internal/router"} {
		out, err := exec.Command(goBin, "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		n := 0
		for _, dep := range strings.Fields(string(out)) {
			if dep != "edgedrift" && !strings.HasPrefix(dep, "edgedrift/") {
				continue
			}
			n++
			for _, f := range forbidden {
				if dep == f || strings.HasPrefix(dep, f+"/") {
					t.Errorf("%s links %s", pkg, dep)
				}
			}
		}
		t.Logf("%s: %d in-module packages", pkg, n)
	}
}
