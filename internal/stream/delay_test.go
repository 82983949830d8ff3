package stream

import (
	"testing"
)

func allOnes(n int) []int {
	ys := make([]int, n)
	for i := range ys {
		ys[i] = 1
	}
	return ys
}

// TestDelayFixed: with a fixed delay every kept label arrives exactly
// Delay steps after its sample, and late-stream labels expire.
func TestDelayFixed(t *testing.T) {
	const n, d = 100, 7
	s, err := NewDelaySchedule(allOnes(n), DelaySpec{Kind: DelayFixed, Delay: d, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for step := 0; step < n; step++ {
		arr := s.At(step)
		if step < d {
			if len(arr) != 0 {
				t.Fatalf("step %d: %d arrivals before any delay elapsed", step, len(arr))
			}
			continue
		}
		if len(arr) != 1 || arr[0].Index != step-d || arr[0].Label != 1 {
			t.Fatalf("step %d: arrivals = %v, want index %d", step, arr, step-d)
		}
	}
	if s.observed != n-d || s.expired != d || s.Dropped() != 0 {
		t.Fatalf("observed/expired/dropped = %d/%d/%d, want %d/%d/0",
			s.observed, s.expired, s.Dropped(), n-d, d)
	}
}

// TestDelayZero: a zero delay schedules every label at its own step —
// consumed after Process, so prequential ordering is preserved.
func TestDelayZero(t *testing.T) {
	s, err := NewDelaySchedule([]int{4, 5, 6}, DelaySpec{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{4, 5, 6} {
		arr := s.At(i)
		if len(arr) != 1 || arr[0].Index != i || arr[0].Label != want {
			t.Fatalf("step %d: arrivals = %v", i, arr)
		}
	}
}

// TestDelayDeterministic: the same spec must produce the identical
// schedule; a different seed must not.
func TestDelayDeterministic(t *testing.T) {
	ys := allOnes(500)
	spec := DelaySpec{Kind: DelayGeometric, Delay: 20, Budget: 0.5, Seed: 11}
	a, err := NewDelaySchedule(ys, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDelaySchedule(ys, spec)
	if err != nil {
		t.Fatal(err)
	}
	for step := range ys {
		av, bv := a.At(step), b.At(step)
		if len(av) != len(bv) {
			t.Fatalf("step %d: %d vs %d arrivals for one spec", step, len(av), len(bv))
		}
		for k := range av {
			if av[k] != bv[k] {
				t.Fatalf("step %d arrival %d: %v vs %v", step, k, av[k], bv[k])
			}
		}
	}
	spec.Seed = 12
	c, err := NewDelaySchedule(ys, spec)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for step := range ys {
		if len(a.At(step)) != len(c.At(step)) {
			same = false
			break
		}
	}
	if same && a.observed == c.observed && a.Dropped() == c.Dropped() {
		t.Fatal("different seeds produced an identical-looking schedule")
	}
}

// TestDelayBudget: the kept fraction tracks the budget, and the rest is
// dropped rather than delayed.
func TestDelayBudget(t *testing.T) {
	const n = 4000
	s, err := NewDelaySchedule(allOnes(n), DelaySpec{Kind: DelayFixed, Delay: 0, Budget: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kept := float64(s.observed) / n
	if kept < 0.20 || kept > 0.30 {
		t.Fatalf("kept fraction = %.3f, want ≈ 0.25", kept)
	}
	if s.observed+s.Dropped()+s.expired != n {
		t.Fatalf("accounting leak: %d+%d+%d != %d", s.observed, s.Dropped(), s.expired, n)
	}
}

// TestDelayMeans: uniform and geometric draws land near the requested
// mean delay over a long stream.
func TestDelayMeans(t *testing.T) {
	const n, mean = 20000, 10
	for _, kind := range []DelayKind{DelayUniform, DelayGeometric} {
		s, err := NewDelaySchedule(allOnes(n), DelaySpec{Kind: kind, Delay: mean, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var sum, cnt float64
		for step := 0; step < n; step++ {
			for _, a := range s.At(step) {
				sum += float64(step - a.Index)
				cnt++
			}
		}
		got := sum / cnt
		if got < 0.8*mean || got > 1.2*mean {
			t.Fatalf("%v: mean delay = %.2f, want ≈ %d", kind, got, mean)
		}
	}
}

// TestDelaySpecErrors: invalid specs and unlabelled streams fail.
func TestDelaySpecErrors(t *testing.T) {
	if _, err := NewDelaySchedule(nil, DelaySpec{}); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := NewDelaySchedule(allOnes(5), DelaySpec{Delay: -1}); err == nil {
		t.Fatal("negative delay accepted")
	}
	if _, err := NewDelaySchedule(allOnes(5), DelaySpec{Budget: 1.5}); err == nil {
		t.Fatal("budget > 1 accepted")
	}
}
