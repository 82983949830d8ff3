package adwin

import (
	"testing"

	"edgedrift/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Delta: 2}); err == nil {
		t.Fatal("expected delta error")
	}
	if _, err := New(Config{MaxBucketsPerRow: 1}); err == nil {
		t.Fatal("expected bucket error")
	}
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.total != 0 || d.Mean() != 0 || d.cuts != 0 {
		t.Fatal("fresh detector state")
	}
}

func TestObservePanicsOutOfRange(t *testing.T) {
	d, _ := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Observe(1.5)
}

func TestMeanTracksStationaryStream(t *testing.T) {
	d, _ := New(Config{})
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		var v float64
		if r.Bernoulli(0.3) {
			v = 1
		}
		d.Observe(v)
	}
	if m := d.Mean(); m < 0.25 || m > 0.35 {
		t.Fatalf("window mean %v, want ≈0.3", m)
	}
	// The window should have grown large with no change.
	if d.total < 2000 {
		t.Fatalf("stationary window width %d, expected to grow", d.total)
	}
}

func TestNoCutsOnStationaryStream(t *testing.T) {
	d, _ := New(Config{})
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		var v float64
		if r.Bernoulli(0.2) {
			v = 1
		}
		d.Observe(v)
	}
	// δ=0.002 keeps false cuts very rare.
	if d.cuts > 2 {
		t.Fatalf("%d cuts on a stationary stream", d.cuts)
	}
}

func TestDetectsMeanShift(t *testing.T) {
	d, _ := New(Config{})
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		var v float64
		if r.Bernoulli(0.05) {
			v = 1
		}
		d.Observe(v)
	}
	detectedAt := -1
	for i := 0; i < 2000; i++ {
		var v float64
		if r.Bernoulli(0.6) {
			v = 1
		}
		if d.Observe(v) && detectedAt == -1 {
			detectedAt = i
		}
	}
	if detectedAt == -1 {
		t.Fatal("mean shift never detected")
	}
	if detectedAt > 300 {
		t.Fatalf("detection delay %d too long", detectedAt)
	}
	// Window should have shed the old regime: its mean now reflects the
	// new rate.
	if m := d.Mean(); m < 0.4 {
		t.Fatalf("post-cut window mean %v still reflects old regime", m)
	}
}

func TestWindowShrinksAfterCut(t *testing.T) {
	d, _ := New(Config{})
	r := rng.New(4)
	for i := 0; i < 3000; i++ {
		d.Observe(0)
	}
	widthBefore := d.total
	for i := 0; i < 500; i++ {
		var v float64
		if r.Bernoulli(0.9) {
			v = 1
		}
		d.Observe(v)
	}
	if d.cuts == 0 {
		t.Fatal("no cut on a 0→0.9 shift")
	}
	if d.total >= widthBefore+500 {
		t.Fatalf("window did not shrink: %d → %d", widthBefore, d.total)
	}
}

func TestMemoryIsLogarithmic(t *testing.T) {
	d, _ := New(Config{})
	r := rng.New(5)
	for i := 0; i < 100000; i++ {
		var v float64
		if r.Bernoulli(0.5) {
			v = 1
		}
		d.Observe(v)
	}
	// 100k observations must be summarised in way under 10 kB.
	if b := d.MemoryBytes(); b > 10*1024 {
		t.Fatalf("ADWIN memory %d bytes for 100k stream", b)
	}
}

func TestCheckEverySkipsTests(t *testing.T) {
	d, _ := New(Config{CheckEvery: 50})
	r := rng.New(6)
	for i := 0; i < 1000; i++ {
		d.Observe(0)
	}
	// Shift; detection still happens, just on a 50-sample grid.
	detected := false
	for i := 0; i < 1000 && !detected; i++ {
		var v float64
		if r.Bernoulli(0.9) {
			v = 1
		}
		detected = d.Observe(v)
	}
	if !detected {
		t.Fatal("CheckEvery=50 never detected the shift")
	}
}
