package core

import (
	"bytes"
	"math"
	"testing"

	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// cloneModel copies d's model exactly (the f64 wire at f64 precision is
// lossless), so CloneAt over it must produce a perfect twin.
func cloneModel(t *testing.T, d *Detector) *model.Multi {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.Model().Save(&buf, oselm.Float64); err != nil {
		t.Fatal(err)
	}
	m2, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// TestCloneAtContinuesBitIdentical drives the original detector and its
// CloneAt twin through the same post-clone stream and requires every
// Result field to match bit for bit — the guarantee a runtime precision
// transition is built on (at equal precision the clone is a perfect
// continuation).
func TestCloneAtContinuesBitIdentical(t *testing.T) {
	d, r := newCalibrated(t, 91, DefaultConfig(40))
	for i := 0; i < 150; i++ {
		d.Process(sample(r, i%testClasses, 0))
	}
	nd, err := d.CloneAt(cloneModel(t, d))
	if err != nil {
		t.Fatal(err)
	}
	// Shifted samples push both through checking windows, drift and
	// reconstruction — the full state machine, not just monitoring.
	for i := 0; i < 3000; i++ {
		x := sample(r, i%testClasses, 4)
		a, b := d.Process(x), nd.Process(x)
		if a != b {
			t.Fatalf("sample %d: clone diverged: %+v vs %+v", i, a, b)
		}
	}
	if d.Reconstructions() == 0 {
		t.Fatal("stream never exercised a reconstruction")
	}
	ha, hb := d.Health(), nd.Health()
	// The monitoring-score histogram bins are the one piece of state the
	// clone starts fresh (the running summary itself is carried), so the
	// bin totals lag by the pre-clone samples.
	ha.ScoreHistTotal, hb.ScoreHistTotal = 0, 0
	ha.ScoreHistDropped, hb.ScoreHistDropped = 0, 0
	if ha != hb {
		t.Fatalf("health snapshots diverged:\n%+v\n%+v", ha, hb)
	}
}

// TestCloneAtCarriesGuardState pins the host-local carry-over the wire
// format omits: counters and the last accepted result that GuardReject
// replays on rejection.
func TestCloneAtCarriesGuardState(t *testing.T) {
	d, r := newCalibrated(t, 92, DefaultConfig(40))
	good := sample(r, 0, 0)
	d.Process(good)
	bad := append([]float64(nil), good...)
	bad[1] = math.NaN()
	want := d.Process(bad)
	if !want.Rejected {
		t.Fatal("NaN sample was not rejected")
	}
	nd, err := d.CloneAt(cloneModel(t, d))
	if err != nil {
		t.Fatal(err)
	}
	got := nd.Process(bad)
	if got != want {
		t.Fatalf("clone replayed %+v on rejection, origin %+v", got, want)
	}
	// The clone carried the origin's counter and then rejected once more
	// itself.
	if gh, dh := nd.Health().Rejected, d.Health().Rejected; gh != dh+1 {
		t.Fatalf("clone Rejected %d, origin %d", gh, dh)
	}
}

// TestCloneAtClampPolicySurvives verifies a GuardClamp detector does not
// silently degrade to the wire default (reject) across a clone.
func TestCloneAtClampPolicySurvives(t *testing.T) {
	cfg := DefaultConfig(40)
	cfg.Guard = GuardClamp
	d, r := newCalibrated(t, 93, cfg)
	inf := sample(r, 0, 0)
	inf[0] = math.Inf(1)
	d.Process(inf)
	nd, err := d.CloneAt(cloneModel(t, d))
	if err != nil {
		t.Fatal(err)
	}
	res := nd.Process(inf)
	if res.Rejected {
		t.Fatal("clone rejected under GuardClamp — policy lost in transit")
	}
	if nd.Health().Clamped != d.Health().Clamped+1 {
		t.Fatalf("clamp counter: clone %d, origin %d", nd.Health().Clamped, d.Health().Clamped)
	}
}
