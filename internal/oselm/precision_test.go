package oselm

import (
	"math"
	"testing"

	"edgedrift/internal/rng"
)

// TestMemoryBytesPerPrecision pins the memory audit to its closed form
// for every backend: the RLS training state (P, h, P·h, e) is always
// float64, while the inference-side slabs scale with the element width.
func TestMemoryBytesPerPrecision(t *testing.T) {
	const d, h, m = 16, 22, 16
	training := 8 * (h*h + h + h + m) // P, h, P·h, e — always f64
	infSlabs := h*d + h + h*m         // W, bias, β
	staging := h + d + m + h + m      // h32, x32, o32, u32, e32
	cases := []struct {
		prec      Precision
		wantTotal int
	}{
		{Float64, training + 8*infSlabs},
		{Float32, training + 4*(infSlabs+staging)},
	}
	for _, tc := range cases {
		mdl, err := New(Config{Inputs: d, Hidden: h, Outputs: m, Precision: tc.prec}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := mdl.MemoryBytes(); got != tc.wantTotal {
			t.Errorf("%v MemoryBytes = %d, want %d", tc.prec, got, tc.wantTotal)
		}
	}
}

// precisionPair builds two models of identical shape and seed, one per
// trainable backend, so the float32 model starts as the rounded image of
// the float64 one.
func precisionPair(t *testing.T, d, h int) (*Model, *Model) {
	t.Helper()
	m64, err := New(Config{Inputs: d, Hidden: h, Outputs: d}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	m32, err := New(Config{Inputs: d, Hidden: h, Outputs: d, Precision: Float32}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return m64, m32
}

// TestFloat32TracksFloat64 trains both backends on the same stream and
// checks the float32 predictions stay within single-precision rounding
// of the float64 reference throughout.
func TestFloat32TracksFloat64(t *testing.T) {
	const d, h, n = 12, 22, 400
	m64, m32 := precisionPair(t, d, h)
	r := rng.New(3)
	x := make([]float64, d)
	o64 := make([]float64, d)
	o32 := make([]float64, d)
	worst := 0.0
	for i := 0; i < n; i++ {
		r.FillUniform(x, -1, 1)
		m64.Predict(o64, x)
		m32.Predict(o32, x)
		for j := range o64 {
			if diff := math.Abs(o64[j] - o32[j]); diff > worst {
				worst = diff
			}
		}
		m64.Train(x, x)
		m32.Train(x, x)
	}
	// Single-precision epsilon is ~1.2e-7; after hundreds of RLS steps
	// the accumulated rounding stays far below the anomaly-score scale
	// (the Table-2 tolerance methodology in DESIGN.md §11 builds on this).
	if worst > 1e-3 {
		t.Fatalf("float32 predictions drifted %g from float64, want <= 1e-3", worst)
	}
}

// TestFloat32ZeroAllocs extends the steady-state zero-allocation
// guarantee to the float32 backend's Predict and Train paths.
func TestFloat32ZeroAllocs(t *testing.T) {
	m, err := New(Config{Inputs: 64, Hidden: 22, Outputs: 64, Precision: Float32}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	out := make([]float64, 64)
	rng.New(3).FillUniform(x, -1, 1)
	m.Train(x, x)
	if n := testing.AllocsPerRun(200, func() { m.Predict(out, x) }); n != 0 {
		t.Fatalf("f32 Predict allocates %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Train(x, x) }); n != 0 {
		t.Fatalf("f32 Train allocates %v objects per call, want 0", n)
	}
}

// TestFixed16NotTrainable pins the constructor error: the Q16.16 backend
// is inference-only and must be produced by quantising a fitted model,
// never by training.
func TestFixed16NotTrainable(t *testing.T) {
	if _, err := New(Config{Inputs: 8, Hidden: 4, Outputs: 8, Precision: Fixed16}, rng.New(1)); err == nil {
		t.Fatal("New accepted a Fixed16 training config")
	}
}

// TestParsePrecision pins the accepted spellings and the error shape for
// unknown ones (driftbench -precision leans on this).
func TestParsePrecision(t *testing.T) {
	ok := map[string]Precision{
		"f64": Float64, "float64": Float64,
		"f32": Float32, "float32": Float32,
		"q16": Fixed16, "fixed16": Fixed16,
	}
	for s, want := range ok {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
}
