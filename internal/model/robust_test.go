package model

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/oselm"
)

func savedMulti(t *testing.T) []byte {
	t.Helper()
	m, _, _ := newTrained(t, 60)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, oselm.Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMultiLoadRejectsEveryTruncation(t *testing.T) {
	full := savedMulti(t)
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrBadFormat", n, len(full), err)
		}
	}
}

func TestMultiLoadRejectsEveryFlippedByte(t *testing.T) {
	full := savedMulti(t)
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flipped byte %d/%d: err = %v, want ErrBadFormat", i, len(full), err)
		}
	}
}

func TestMultiHealthAggregates(t *testing.T) {
	m, xs, labels := newTrained(t, 61)
	h := m.Health()
	if !h.PFinite || !h.BetaFinite {
		t.Fatalf("trained model unhealthy: %+v", h)
	}
	if h.PTrace <= 0 || math.IsNaN(h.PTrace) {
		t.Fatalf("implausible aggregated P trace %v", h.PTrace)
	}
	if h.WatchdogResets != 0 {
		t.Fatalf("fresh model reports %d watchdog resets", h.WatchdogResets)
	}
	// A non-finite training sample hits one instance's RLS denominator
	// guard; the repair must surface in the aggregated reset count while
	// the state stays finite.
	bad := append([]float64(nil), xs[0]...)
	bad[0] = math.NaN()
	m.Train(bad, labels[0])
	h = m.Health()
	if h.WatchdogResets == 0 {
		t.Fatal("aggregate missed the instance's divergence repair")
	}
	if !h.PFinite || !h.BetaFinite {
		t.Fatalf("repair left non-finite state: %+v", h)
	}
}
