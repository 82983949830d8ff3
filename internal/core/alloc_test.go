package core

import (
	"math"
	"testing"
)

// Process must be allocation-free in steady state — both plain
// monitoring and the checking phase with an open window. The only
// allocating events in the detector's life are drift detections (the
// event log append) and reconstruction begin, which happen a handful of
// times per deployment, not per sample.

func TestProcessMonitoringZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.ErrorThreshold = 1e18 // never open a check window
	d, r := newCalibrated(t, 1, cfg)
	x := sample(r, 0, 0)
	if n := testing.AllocsPerRun(200, func() { d.Process(x) }); n != 0 {
		t.Fatalf("monitoring Process allocates %v objects per call, want 0", n)
	}
}

func TestProcessCheckingZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(1 << 30) // window never closes: stays checking
	cfg.NRecon = math.MaxInt32
	cfg.NUpdate = 1 << 30
	cfg.AlwaysCheck = true
	cfg.DriftThreshold = 1e18
	d, r := newCalibrated(t, 1, cfg)
	x := sample(r, 0, 0)
	d.Process(x)
	if got := d.PhaseNow(); got != Checking {
		t.Fatalf("phase = %v, want checking", got)
	}
	if n := testing.AllocsPerRun(200, func() { d.Process(x) }); n != 0 {
		t.Fatalf("checking Process allocates %v objects per call, want 0", n)
	}
}
