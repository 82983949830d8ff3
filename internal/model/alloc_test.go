package model

import (
	"testing"

	"edgedrift/internal/rng"
)

// Steady-state prediction and sequential training across the C-instance
// model must stay allocation-free: Predict fans out to every instance's
// Score and Train touches exactly one instance, all through pre-sized
// scratch buffers.

func TestPredictZeroAllocs(t *testing.T) {
	m, err := New(Config{Classes: 3, Inputs: 64, Hidden: 22}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	rng.New(3).FillUniform(x, -1, 1)
	if n := testing.AllocsPerRun(200, func() { m.Predict(x) }); n != 0 {
		t.Fatalf("Predict allocates %v objects per call, want 0", n)
	}
}

func TestTrainClosestZeroAllocs(t *testing.T) {
	m, err := New(Config{Classes: 3, Inputs: 64, Hidden: 22}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	rng.New(3).FillUniform(x, -1, 1)
	if n := testing.AllocsPerRun(200, func() { m.TrainClosest(x) }); n != 0 {
		t.Fatalf("TrainClosest allocates %v objects per call, want 0", n)
	}
}

// BenchmarkPredict times multi-instance scoring at a production-ish
// shape (C=8 instances, D=511, H=64).
func BenchmarkPredict(b *testing.B) {
	m, err := New(Config{Classes: 8, Inputs: 511, Hidden: 64}, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 511)
	rng.New(3).FillUniform(x, -1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}
