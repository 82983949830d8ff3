package mat

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add in a -S listing.
var fusedOp = regexp.MustCompile(`\tFN?M(ADD|SUB)[DS]\t`)

// TestNoFusedMultiplyAddOnArm64 cross-compiles this package for arm64
// and asserts the compiler emitted no fused multiply-add. The Go spec
// lets a compiler fuse x*y+z into one rounding unless the product is
// explicitly converted, and gc does so on arm64 (never on amd64 at the
// default GOAMD64=v1), so every product feeding an add in this package
// is written E(x*y). Without that, arm64 scores, distances and RLS
// updates would round differently from amd64 and from the AVX kernels,
// and goldens, migration and merge fingerprints would diverge silently.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command next to the test's GOROOT: %v", err)
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	var fused []string
	muls := 0
	for _, line := range strings.Split(string(out), "\n") {
		if fusedOp.MatchString(line) {
			fused = append(fused, strings.TrimSpace(line))
		}
		if strings.Contains(line, "\tFMULD\t") {
			muls++
		}
	}
	if muls == 0 {
		t.Fatalf("arm64 -S listing holds no float64 multiply; got %d bytes", len(out))
	}
	if len(fused) > 0 {
		t.Fatalf("%d fused multiply-adds on arm64; round each product with an explicit conversion:\n%s",
			len(fused), strings.Join(fused, "\n"))
	}
}
