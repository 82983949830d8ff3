package pressure_test

import (
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/oselm"
	"edgedrift/internal/pressure"
	"edgedrift/internal/rng"
)

// The governor's Pool contract is satisfied by the public Fleet — the
// compile-time pin that keeps the two packages in step.
var _ pressure.Pool = (*edgedrift.Fleet)(nil)

// TestGovernorDrivesRealFleet closes the loop against an actual fleet:
// manual deterministic ticks demote the colder member first and promote
// it back, with the fleet's own transition counters agreeing.
func TestGovernorDrivesRealFleet(t *testing.T) {
	oldC := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	r := rng.New(7)
	trainX, trainY := synth.TrainingSet(oldC, 300, r)
	st, err := synth.Generate(oldC, oldC, 800, synth.Spec{Kind: synth.Sudden, Start: 400}, r)
	if err != nil {
		t.Fatal(err)
	}
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, id := range []string{"hot", "cold"} {
		mon, err := edgedrift.New(edgedrift.Options{Classes: 2, Inputs: 3, Hidden: 8, Window: 50, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Fit(trainX, trainY); err != nil {
			t.Fatal(err)
		}
		if err := f.Add(id, mon); err != nil {
			t.Fatal(err)
		}
	}
	g := pressure.New(1000, f)

	serve := func(id string, n int) {
		if _, err := f.ProcessBatch(id, st.X[:n]); err != nil {
			t.Fatal(err)
		}
	}
	demoted := 0
	for i := 0; i < 20 && demoted < 2; i++ {
		serve("hot", 40)
		serve("cold", 2)
		if a := g.Tick(5000); a.Kind == pressure.Demote {
			demoted++
			if demoted == 1 && a.Stream != "cold" {
				t.Fatalf("first demotion hit %q, want the cold member", a.Stream)
			}
		}
	}
	if demoted != 2 {
		t.Fatalf("governor demoted %d members under sustained pressure", demoted)
	}
	m := f.Metrics()
	if m.Degraded != 2 || m.Demotions != 2 {
		t.Fatalf("fleet metrics disagree with the governor: %+v", m)
	}
	for _, id := range []string{"hot", "cold"} {
		if degraded, active, _, _ := f.MemberPrecision(id); !degraded || active != oselm.Float32 {
			t.Fatalf("%s: degraded=%v active=%v", id, degraded, active)
		}
	}

	promoted := 0
	for i := 0; i < 20 && promoted < 2; i++ {
		serve("hot", 40)
		serve("cold", 2)
		if a := g.Tick(100); a.Kind == pressure.Promote {
			promoted++
		}
	}
	if promoted != 2 {
		t.Fatalf("governor promoted %d members after pressure cleared", promoted)
	}
	if m := f.Metrics(); m.Degraded != 0 || m.Promotions != 2 {
		t.Fatalf("fleet metrics after recovery: %+v", m)
	}
}
