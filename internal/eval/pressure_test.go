package eval

import (
	"encoding/json"
	"os"
	"testing"
)

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

// TestPressureArtifactMatchesCode regenerates the BENCH_10 matrix at the
// committed artifact's seed and compares every deterministic field with
// BENCH_10.json — accuracy, detection delay, retained memory and the
// golden gate — so the committed file cannot drift from the code that
// emits it (`make bench-pressure` regenerates it). Throughput is host
// timing and is not compared.
func TestPressureArtifactMatchesCode(t *testing.T) {
	if testing.Short() {
		t.Skip("full stream replays")
	}
	raw, err := os.ReadFile("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed PressureReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	rep, err := PressureMatrix(committed.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoldenGateOK != committed.GoldenGateOK {
		t.Fatalf("golden_gate_ok %v, BENCH_10.json says %v", rep.GoldenGateOK, committed.GoldenGateOK)
	}
	if len(rep.Points) != len(committed.Points) {
		t.Fatalf("%d points, BENCH_10.json has %d", len(rep.Points), len(committed.Points))
	}
	for i, got := range rep.Points {
		want := committed.Points[i]
		if got.Stream != want.Stream || got.Level != want.Level {
			t.Fatalf("point %d is %s/%s, BENCH_10.json has %s/%s", i, got.Stream, got.Level, want.Stream, want.Level)
		}
		if got.AccuracyPct != want.AccuracyPct || got.Delay != want.Delay || got.MemoryBytes != want.MemoryBytes {
			t.Errorf("%s/%s: accuracy %v%%, delay %d, memory %d B; BENCH_10.json says %v%%, %d, %d B",
				got.Stream, got.Level, got.AccuracyPct, got.Delay, got.MemoryBytes,
				want.AccuracyPct, want.Delay, want.MemoryBytes)
		}
	}
}
