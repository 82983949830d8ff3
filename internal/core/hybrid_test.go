package core

import (
	"testing"

	"edgedrift/internal/health"
)

// fakeSup is a scripted supervised arm: it raises a drift alarm on its
// FireAt-th observation (counting from 1), then re-arms on Reset.
type fakeSup struct {
	FireAt int
	n      int
	resets int
}

func (s *fakeSup) Process(x []float64) Result {
	s.n++
	res := Result{Label: -1, Phase: Monitoring}
	if s.n == s.FireAt {
		res.DriftDetected = true
	}
	return res
}

func (s *fakeSup) Reset() { s.resets++; s.n = 0 }

func (s *fakeSup) MemoryBytes() int { return 8 }

func (s *fakeSup) Health() health.Snapshot {
	return health.Snapshot{PFinite: true, Phase: Monitoring.String()}
}

// fakeInner is a scripted unsupervised stage: it fires on the steps
// listed in fire, and records TriggerReconstruction calls.
type fakeInner struct {
	fire     map[int]bool
	n        int
	triggers int
}

func (s *fakeInner) Process(x []float64) Result {
	s.n++
	return Result{Label: 0, Phase: Monitoring, DriftDetected: s.fire[s.n]}
}

func (s *fakeInner) TriggerReconstruction() { s.triggers++ }

func (s *fakeInner) MemoryBytes() int { return 8 }

func (s *fakeInner) Health() health.Snapshot {
	return health.Snapshot{PFinite: true, Phase: Monitoring.String()}
}

// TestFusionPolicyParse pins the policies' spellings.
func TestFusionPolicyParse(t *testing.T) {
	for p, want := range map[FusionPolicy]string{FuseEither: "either", FuseConfirm: "confirm", 99: "unknown"} {
		if got := p.String(); got != want {
			t.Fatalf("FusionPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// TestHybridBystander: with no Observe calls the wrapped detector must
// behave bit-identically to a bare one — results and health snapshot —
// across monitoring, a drift, and reconstruction.
func TestHybridBystander(t *testing.T) {
	bare, r1 := newCalibrated(t, 90, DefaultConfig(40))
	wrapped, r2 := newCalibrated(t, 90, DefaultConfig(40))
	h := NewHybrid(wrapped, &fakeSup{FireAt: 1}, HybridConfig{})
	for i := 0; i < 2000; i++ {
		shift := 0.0
		if i >= 600 {
			shift = 6
		}
		c := i % testClasses
		a := bare.Process(sample(r1, c, shift))
		b := h.Process(sample(r2, c, shift))
		if a != b {
			t.Fatalf("step %d: bare %+v, wrapped %+v", i, a, b)
		}
	}
	if bare.Health() != h.Health() {
		t.Fatalf("health diverged:\nbare    %+v\nwrapped %+v", bare.Health(), h.Health())
	}
	if h.PhaseNow() != bare.PhaseNow() {
		t.Fatalf("phase %v vs %v", h.PhaseNow(), bare.PhaseNow())
	}
}

// TestHybridEitherTriggers: under FuseEither a supervised alarm starts
// the inner detector's reconstruction; a second alarm during that
// reconstruction fires but does not re-trigger.
func TestHybridEitherTriggers(t *testing.T) {
	d, r := newCalibrated(t, 91, DefaultConfig(40))
	sup := &fakeSup{FireAt: 5}
	h := NewHybrid(d, sup, HybridConfig{Policy: FuseEither})
	for i := 0; i < 50; i++ {
		h.Process(sample(r, i%testClasses, 0))
	}
	for i := 0; i < 4; i++ {
		if h.Observe(1, 0) {
			t.Fatalf("observation %d fired early", i)
		}
	}
	if !h.Observe(1, 0) {
		t.Fatal("5th observation must fire")
	}
	if d.PhaseNow() != Reconstructing {
		t.Fatalf("phase = %v, want Reconstructing", d.PhaseNow())
	}
	if h.SupervisedFires() != 1 || h.SupervisedTriggers() != 1 {
		t.Fatalf("fires=%d triggers=%d, want 1/1", h.SupervisedFires(), h.SupervisedTriggers())
	}
	if sup.resets != 1 {
		t.Fatalf("supervised arm reset %d times, want 1", sup.resets)
	}
	// A second supervised alarm mid-reconstruction must not re-trigger.
	for i := 0; i < 5; i++ {
		h.Observe(1, 0)
	}
	if h.SupervisedFires() != 2 || h.SupervisedTriggers() != 1 {
		t.Fatalf("fires=%d triggers=%d after mid-reconstruction alarm, want 2/1",
			h.SupervisedFires(), h.SupervisedTriggers())
	}
	if h.LabelsObserved() != 10 {
		t.Fatalf("labels observed = %d, want 10", h.LabelsObserved())
	}
	s := h.Health()
	if s.LabelsObserved != 10 || s.SupervisedFires != 2 || s.SupervisedTriggers != 1 {
		t.Fatalf("health %+v does not carry hybrid counters", s)
	}
}

// TestHybridConfirm: under FuseConfirm neither arm changes the other's
// behaviour, but alarms within the confirmation window pair up — in
// both orders.
func TestHybridConfirm(t *testing.T) {
	// Unsupervised first, supervised confirms.
	inner := &fakeInner{fire: map[int]bool{5: true}}
	sup := &fakeSup{FireAt: 1}
	h := NewHybrid(inner, sup, HybridConfig{Policy: FuseConfirm, ConfirmWindow: 10})
	x := []float64{0}
	for i := 0; i < 7; i++ {
		h.Process(x)
	}
	if !h.Observe(1, 0) {
		t.Fatal("supervised arm must fire")
	}
	if h.confirms != 1 {
		t.Fatalf("confirms = %d, want 1 (sup after unsup)", h.confirms)
	}
	if inner.triggers != 0 {
		t.Fatal("FuseConfirm must never trigger reconstruction")
	}
	// Supervised first, unsupervised confirms.
	inner2 := &fakeInner{fire: map[int]bool{8: true}}
	h2 := NewHybrid(inner2, &fakeSup{FireAt: 1}, HybridConfig{Policy: FuseConfirm, ConfirmWindow: 10})
	for i := 0; i < 3; i++ {
		h2.Process(x)
	}
	h2.Observe(1, 0)
	for i := 0; i < 5; i++ {
		h2.Process(x)
	}
	if h2.confirms != 1 {
		t.Fatalf("confirms = %d, want 1 (unsup after sup)", h2.confirms)
	}
	// Outside the window: no confirmation.
	inner3 := &fakeInner{fire: map[int]bool{2: true}}
	h3 := NewHybrid(inner3, &fakeSup{FireAt: 1}, HybridConfig{Policy: FuseConfirm, ConfirmWindow: 10})
	for i := 0; i < 20; i++ {
		h3.Process(x)
	}
	h3.Observe(1, 0)
	if h3.confirms != 0 {
		t.Fatalf("confirms = %d, want 0 (alarms 18 steps apart, window 10)", h3.confirms)
	}
	if h3.Health().HybridConfirms != 0 || h2.Health().HybridConfirms != 1 {
		t.Fatal("health confirm counters wrong")
	}
}

func TestNewHybridPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHybrid(nil, &fakeSup{}, HybridConfig{})
}
