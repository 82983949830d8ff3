package eval

import "testing"

// TestPressureMatrix runs the full forced-degradation matrix once and checks
// its structural invariants: every stream×level cell present, the
// golden gate green, baselines anchoring the deltas, and the f32
// demotion actually paying for itself on throughput.
func TestPressureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full stream replays")
	}
	rep, err := PressureMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoldenGateOK {
		t.Fatal("golden gate failed: demote→promote excursion perturbed the f64 path")
	}
	if len(rep.Points) != 2*len(PressureLevels) {
		t.Fatalf("%d points, want %d", len(rep.Points), 2*len(PressureLevels))
	}
	cells := map[string]PressurePoint{}
	for _, p := range rep.Points {
		if p.SamplesPerSec <= 0 {
			t.Fatalf("%s/%s: non-positive throughput", p.Stream, p.Level)
		}
		cells[p.Stream+"/"+p.Level] = p
	}
	base, ok := cells["nsl-kdd/f64"]
	if !ok {
		t.Fatal("missing nsl-kdd baseline")
	}
	if base.AccuracyDeltaPct != 0 {
		t.Fatalf("baseline accuracy delta %v, want 0", base.AccuracyDeltaPct)
	}
	if base.AccuracyPct < 80 {
		t.Fatalf("nsl-kdd f64 accuracy %.1f%%, implausibly low", base.AccuracyPct)
	}
	f32 := cells["nsl-kdd/f32"]
	if f32.SamplesPerSec <= base.SamplesPerSec {
		t.Fatalf("f32 demotion did not raise throughput: %0.f vs %0.f samples/s",
			f32.SamplesPerSec, base.SamplesPerSec)
	}
	if d := f32.AccuracyDeltaPct; d < -2 || d > 2 {
		t.Fatalf("f32 accuracy delta %.2f%% out of the bounded band", d)
	}
	// Demotion retains origin + twin, so retained memory must go UP.
	if f32.MemoryBytes <= base.MemoryBytes {
		t.Fatalf("demoted footprint %d not larger than baseline %d", f32.MemoryBytes, base.MemoryBytes)
	}
	for _, s := range []string{"nsl-kdd", "fan-sudden"} {
		if cells[s+"/f64"].Delay < 0 {
			t.Fatalf("%s baseline missed the drift", s)
		}
	}
}
