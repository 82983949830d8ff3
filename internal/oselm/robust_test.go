package oselm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/mat"
	"edgedrift/internal/rng"
)

// poisonP plants a NaN in the middle of the RLS covariance, the state a
// non-finite training target (or accumulated blow-up) would leave behind.
func poisonP(m *Model) {
	m.p.Data[len(m.p.Data)/2] = math.NaN()
}

func TestWatchdogRepairsNaNCovariance(t *testing.T) {
	m := trainedModel(t)
	poisonP(m)
	if h := m.HealthNow(); h.PFinite {
		t.Fatal("poisoned P reported finite")
	}
	// The very next Train hits a NaN denominator and must repair rather
	// than fold NaN into P and β.
	x := []float64{1, 2, 3, 4, 5, 6}
	m.Train(x, []float64{1, 0, 0})
	if got := m.WatchdogResets(); got != 1 {
		t.Fatalf("WatchdogResets = %d, want 1", got)
	}
	h := m.HealthNow()
	if !h.PFinite || !h.BetaFinite {
		t.Fatalf("state still non-finite after repair: %+v", h)
	}
	// The repaired model must keep learning normally.
	for i := 0; i < 50; i++ {
		m.Train(x, []float64{1, 0, 0})
	}
	if h := m.HealthNow(); !h.PFinite || !h.BetaFinite || math.IsNaN(h.PTrace) {
		t.Fatalf("model unhealthy after post-repair training: %+v", h)
	}
	if y := m.Predict(nil, x); !mat.AllFinite(y) {
		t.Fatalf("non-finite prediction after repair: %v", y)
	}
}

func TestPeriodicWatchdogCatchesSilentDivergence(t *testing.T) {
	m := trainedModel(t)
	setWatchdogPeriod(m, 8)
	// Poison P in a way a single Train's denominator check cannot see:
	// h is sigmoid-activated, so a zero input row keeps hᵀPh away from
	// the poisoned entry only in contrived cases; instead poison and
	// train with targets of zero so β stays finite while P decays.
	poisonP(m)
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	for i := 0; i < 16 && m.WatchdogResets() == 0; i++ {
		m.Train(x, []float64{0, 0, 0})
	}
	if m.WatchdogResets() == 0 {
		t.Fatal("watchdog never repaired the poisoned covariance")
	}
	if h := m.HealthNow(); !h.PFinite {
		t.Fatalf("P still non-finite: %+v", h)
	}
}

func TestWatchdogTraceLimitReset(t *testing.T) {
	m := trainedModel(t)
	// Blow the trace past the configured limit without any NaN.
	m.p.Data[0] = m.traceLimit * 10
	m.watchdog()
	if got := m.WatchdogResets(); got != 1 {
		t.Fatalf("WatchdogResets = %d, want 1 after trace blow-up", got)
	}
	if h := m.HealthNow(); h.PTrace > m.traceLimit {
		t.Fatalf("trace %v still above limit %v", h.PTrace, m.traceLimit)
	}
}

func TestWatchdogSymmetrizeKeepsHealthyStateFinite(t *testing.T) {
	m := trainedModel(t)
	before := m.WatchdogResets()
	m.watchdog() // healthy pass: symmetrise only, no reset
	if got := m.WatchdogResets(); got != before {
		t.Fatalf("healthy watchdog pass reset the model (%d → %d)", before, got)
	}
	h := m.HealthNow()
	if !h.PFinite || !h.BetaFinite {
		t.Fatalf("healthy pass corrupted state: %+v", h)
	}
}

func TestLoadRejectsEveryTruncation(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrBadFormat", n, len(full), err)
		}
	}
}

func TestLoadRejectsEveryFlippedByte(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flipped byte %d/%d: err = %v, want ErrBadFormat", i, len(full), err)
		}
	}
}

func TestAutoencoderLoadRejectsCorruption(t *testing.T) {
	ae, err := NewAutoencoder(Config{Inputs: 5, Hidden: 4, Ridge: 0.01}, MSE, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	for i := 0; i < 50; i++ {
		ae.Train(x)
	}
	var buf bytes.Buffer
	if _, err := ae.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		if _, err := LoadAutoencoder(bytes.NewReader(mut)); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flipped byte %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func FuzzLoad(f *testing.F) {
	m, err := New(Config{Inputs: 3, Hidden: 4, Outputs: 2, Ridge: 0.01}, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Save(&buf, Float64); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-4]) // footer missing
	f.Add([]byte("OSELM3"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; any error (or a clean load of a lucky valid
		// stream) is acceptable.
		m, err := Load(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil model with nil error")
		}
	})
}

// setWatchdogPeriod overrides how many Train calls elapse between
// watchdog passes; a positive period arms both the periodic pass and
// the in-update denominator guard, including on forgetting models where
// the watchdog is off by default (see initWatchdog).
func setWatchdogPeriod(m *Model, period int) {
	m.wdPeriod = period
	m.wdCount = 0
}
