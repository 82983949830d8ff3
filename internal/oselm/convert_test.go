package oselm

import (
	"math"
	"testing"

	"edgedrift/internal/rng"
)

// TestConvertPrecisionState pins what the f64 → f32 conversion does to
// each slab: inference weights are narrowed elementwise, while the RLS
// inverse-covariance — the conditioning state promotion depends on — is
// copied bit for bit, along with the init counter and watchdog phase.
func TestConvertPrecisionState(t *testing.T) {
	const d, h = 10, 22
	m, err := New(Config{Inputs: d, Hidden: h, Outputs: d}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]float64, d)
	for i := 0; i < 60; i++ {
		r.FillUniform(x, -1, 1)
		m.Train(x, x)
	}
	m32, err := m.ConvertPrecision(Float32)
	if err != nil {
		t.Fatal(err)
	}
	if m32.cfg.Precision != Float32 {
		t.Fatalf("twin precision %v", m32.cfg.Precision)
	}
	for i, v := range dense(m.w) {
		if m32.w32.Data[i] != float32(v) {
			t.Fatalf("W[%d] not the narrowed image", i)
		}
	}
	for i, v := range m.bias {
		if m32.bias32[i] != float32(v) {
			t.Fatalf("bias[%d] not the narrowed image", i)
		}
	}
	for i, v := range dense(m.beta) {
		if m32.beta32.Data[i] != float32(v) {
			t.Fatalf("beta[%d] not the narrowed image", i)
		}
	}
	for i, v := range m.p.Data {
		if m32.p.Data[i] != v {
			t.Fatalf("P[%d] not bit-identical: %v vs %v", i, m32.p.Data[i], v)
		}
	}
	if m32.inits != m.inits || m32.wdResets != m.wdResets {
		t.Fatal("init counter / watchdog state not carried")
	}

	// The origin must stay bit-exact while the twin trains on.
	wBefore := append([]float64(nil), m.w.Data...)
	betaBefore := append([]float64(nil), m.beta.Data...)
	pBefore := append([]float64(nil), m.p.Data...)
	o64 := make([]float64, d)
	o32 := make([]float64, d)
	worst := 0.0
	for i := 0; i < 50; i++ {
		r.FillUniform(x, -1, 1)
		m.Predict(o64, x)
		m32.Predict(o32, x)
		for j := range o64 {
			if diff := math.Abs(o64[j] - o32[j]); diff > worst {
				worst = diff
			}
		}
	}
	// At the conversion instant the twin is the rounded image of the
	// origin, so inference agrees to single-precision rounding.
	if worst > 1e-4 {
		t.Fatalf("converted twin %g from its origin at conversion time", worst)
	}
	// The twin keeps training; the frozen origin must not move a bit.
	for i := 0; i < 200; i++ {
		r.FillUniform(x, -1, 1)
		m32.Train(x, x)
	}
	for i := range wBefore {
		if m.w.Data[i] != wBefore[i] {
			t.Fatal("origin W mutated by the twin")
		}
	}
	for i := range betaBefore {
		if m.beta.Data[i] != betaBefore[i] {
			t.Fatal("origin beta mutated by the twin")
		}
	}
	for i := range pBefore {
		if m.p.Data[i] != pBefore[i] {
			t.Fatal("origin P mutated by the twin")
		}
	}
}

// TestConvertPrecisionRejects pins the conversion lattice: strictly
// f64 → f32, everything else is an error naming the pair.
func TestConvertPrecisionRejects(t *testing.T) {
	m64, err := New(Config{Inputs: 6, Hidden: 4, Outputs: 6}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m64.ConvertPrecision(Float64); err == nil {
		t.Fatal("accepted a same-precision conversion")
	}
	if _, err := m64.ConvertPrecision(Fixed16); err == nil {
		t.Fatal("accepted f64 → q16 (owned by internal/fixed)")
	}
	m32, err := New(Config{Inputs: 6, Hidden: 4, Outputs: 6, Precision: Float32}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m32.ConvertPrecision(Float64); err == nil {
		t.Fatal("accepted a widening f32 → f64 conversion")
	}
}

// TestAutoencoderConvertPrecision checks the autoencoder wrapper keeps
// the score metric across the conversion.
func TestAutoencoderConvertPrecision(t *testing.T) {
	ae, err := NewAutoencoder(Config{Inputs: 8, Hidden: 4}, MSE, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := ae.ConvertPrecision(Float32)
	if err != nil {
		t.Fatal(err)
	}
	if twin.metric != ae.metric {
		t.Fatalf("metric %v, want %v", twin.metric, ae.metric)
	}
}
