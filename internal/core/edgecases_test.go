package core

import (
	"bytes"
	"testing"

	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// singleClassDetector mirrors the cooling-fan configuration: C=1.
func singleClassDetector(t *testing.T, seed uint64, window int) (*Detector, *rng.Rand) {
	t.Helper()
	m, err := model.New(model.Config{Classes: 1, Inputs: testDims, Hidden: 6, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 500)
	xs := make([][]float64, 300)
	labels := make([]int, 300)
	for i := range xs {
		xs[i] = sample(r, 0, 0)
	}
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(window)
	cfg.NRecon = 120
	d, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestSingleClassDetectorLifecycle(t *testing.T) {
	d, r := singleClassDetector(t, 30, 20)
	// Stationary: no drift, labels always 0.
	for i := 0; i < 400; i++ {
		res := d.Process(sample(r, 0, 0))
		if res.Label != 0 {
			t.Fatalf("C=1 label %d", res.Label)
		}
		if res.DriftDetected {
			t.Fatalf("false positive at %d", i)
		}
	}
	// Shift: must detect and reconstruct despite the degenerate
	// Init_Coord (pairwise distance is empty for C=1).
	detected := false
	for i := 0; i < 2000; i++ {
		if d.Process(sample(r, 0, 4)).DriftDetected {
			detected = true
		}
	}
	if !detected {
		t.Fatal("C=1 detector missed the drift")
	}
	if d.Reconstructions() < 1 {
		t.Fatal("reconstruction did not complete")
	}
	if d.PhaseNow() == Reconstructing {
		t.Fatal("stuck reconstructing")
	}
}

func TestEWMAReconstructionRoundTrip(t *testing.T) {
	// EWMA centroids through a full detect→reconstruct→re-arm cycle.
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(531)
	xs, labels := trainSet(r, 300, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(25)
	cfg.Update = EWMA
	cfg.EWMAGamma = 0.1
	cfg.NRecon = 150
	d, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d.Process(sample(r, i%testClasses, 0))
	}
	for i := 0; i < 2500 && d.Reconstructions() == 0; i++ {
		d.Process(sample(r, i%testClasses, 5))
	}
	if d.Reconstructions() == 0 {
		t.Fatal("EWMA cycle never completed a reconstruction")
	}
	// The detector must remain serialisable and functional afterwards.
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := d.Model().Save(&mbuf, oselm.Float64); err != nil {
		t.Fatal(err)
	}
	m2, err := model.Load(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := LoadState(&buf, m2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Config().Update != EWMA || d2.Config().EWMAGamma != 0.1 {
		t.Fatalf("EWMA config lost in round trip: %+v", d2.Config())
	}
}

func TestRecalibrateAfterReconstructionChangesThresholds(t *testing.T) {
	d, r := newCalibrated(t, 32, DefaultConfig(20))
	before := d.ThetaDrift()
	for i := 0; i < 200; i++ {
		d.Process(sample(r, i%testClasses, 0))
	}
	for i := 0; i < 3000 && d.Reconstructions() == 0; i++ {
		d.Process(sample(r, i%testClasses, 6))
	}
	if d.Reconstructions() == 0 {
		t.Fatal("no reconstruction")
	}
	if d.ThetaDrift() == before {
		t.Fatal("θ_drift not re-derived after reconstruction")
	}
	if d.ThetaDrift() <= 0 {
		t.Fatalf("re-derived θ_drift %v", d.ThetaDrift())
	}
}

func TestPinnedThresholdsSurviveReconstruction(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.DriftThreshold = 2.5
	cfg.ErrorThreshold = 0.5
	d, r := newCalibrated(t, 33, cfg)
	for i := 0; i < 3000 && d.Reconstructions() == 0; i++ {
		d.Process(sample(r, i%testClasses, 6))
	}
	if d.Reconstructions() == 0 {
		t.Skip("pinned thresholds prevented detection on this draw")
	}
	if d.ThetaDrift() != 2.5 || d.ThetaError() != 0.5 {
		t.Fatalf("pinned thresholds drifted: %v / %v", d.ThetaDrift(), d.ThetaError())
	}
}

func TestTriggerReconstructionIdempotentWhileActive(t *testing.T) {
	d, r := newCalibrated(t, 34, DefaultConfig(10))
	d.Process(sample(r, 0, 0))
	d.TriggerReconstruction()
	events := len(d.DriftEvents())
	d.TriggerReconstruction() // no-op while already reconstructing
	if len(d.DriftEvents()) != events {
		t.Fatal("double trigger recorded twice")
	}
}

func TestScoreStatsTracksMonitoring(t *testing.T) {
	d, r := newCalibrated(t, 35, DefaultConfig(30))
	n0 := d.scoreHist.N()
	if n0 != 0 {
		t.Fatalf("fresh detector score count %d", n0)
	}
	for i := 0; i < 120; i++ {
		d.Process(sample(r, i%testClasses, 0))
	}
	n, mean, std := d.scoreHist.N(), d.scoreHist.Mean(), d.scoreHist.Std()
	if n != 120 {
		t.Fatalf("score count %d, want 120", n)
	}
	if mean <= 0 || std < 0 {
		t.Fatalf("score stats mean=%v std=%v", mean, std)
	}
}
