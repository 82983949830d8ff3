package model

import (
	"math"
	"testing"

	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

func batchMulti(t testing.TB, p oselm.Precision, classes int) *Multi {
	t.Helper()
	m, err := New(Config{Classes: classes, Inputs: 24, Hidden: 7, Precision: p}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	x := make([]float64, 24)
	for i := 0; i < 60; i++ {
		r.FillUniform(x, -1, 1)
		m.Train(x, i%classes)
	}
	return m
}

func multiSamples(n int) [][]float64 {
	r := rng.New(17)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, 24)
		r.FillUniform(xs[i], -1, 1)
	}
	return xs
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	for _, p := range []oselm.Precision{oselm.Float64, oselm.Float32} {
		for _, n := range []int{1, 5, 64, 65, 130} {
			m := batchMulti(t, p, 3)
			xs := multiSamples(n)
			wantL := make([]int, n)
			wantS := make([]float64, n)
			for i, x := range xs {
				wantL[i], wantS[i] = m.Predict(x)
			}
			gotL := make([]int, n)
			gotS := make([]float64, n)
			m.PredictBatch(gotL, gotS, xs)
			for i := range xs {
				if gotL[i] != wantL[i] || math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) {
					t.Fatalf("%v n=%d sample %d: batch (%d, %v) per-sample (%d, %v)",
						p, n, i, gotL[i], gotS[i], wantL[i], wantS[i])
				}
			}
		}
	}
}

func TestPredictBatchZeroAllocs(t *testing.T) {
	for _, p := range []oselm.Precision{oselm.Float64, oselm.Float32} {
		m := batchMulti(t, p, 2)
		xs := multiSamples(96)
		labels := make([]int, len(xs))
		scores := make([]float64, len(xs))
		if n := testing.AllocsPerRun(50, func() { m.PredictBatch(labels, scores, xs) }); n != 0 {
			t.Fatalf("%v: PredictBatch allocates %v objects per call, want 0", p, n)
		}
	}
}

func TestPredictBatchBufferMismatchPanics(t *testing.T) {
	m := batchMulti(t, oselm.Float64, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched buffers")
		}
	}()
	m.PredictBatch(make([]int, 1), make([]float64, 2), multiSamples(2))
}
