package oselm

import (
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// ScoreBatch's results are bit-identical to per-sample Score on both
// float backends, for every metric, at batch sizes on either side of 64.

func batchTestAE(t testing.TB, p Precision, metric ScoreMetric, d, h int) *Autoencoder {
	t.Helper()
	ae, err := NewAutoencoder(Config{Inputs: d, Hidden: h, Precision: p}, metric, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	x := make([]float64, d)
	for i := 0; i < 50; i++ {
		r.FillUniform(x, -1, 1)
		ae.Train(x)
	}
	return ae
}

func batchSamples(n, d int) [][]float64 {
	r := rng.New(13)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		r.FillUniform(xs[i], -1, 1)
	}
	return xs
}

func TestScoreBatchMatchesScoreBitExact(t *testing.T) {
	for _, p := range []Precision{Float64, Float32} {
		for _, metric := range []ScoreMetric{MSE, L1Mean, L2Norm} {
			for _, n := range []int{1, 3, 63, 64, 65, 130} {
				const d, h = 37, 9
				ae := batchTestAE(t, p, metric, d, h)
				xs := batchSamples(n, d)
				want := make([]float64, n)
				for i, x := range xs {
					want[i] = ae.Score(x)
				}
				got := make([]float64, n)
				ae.ScoreBatch(got, xs)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v/%v n=%d sample %d: batch %v per-sample %v (want bit-identical)",
							p, metric, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Training between batches must leave both paths equivalent: score a
// batch, train on each sample, score again — against a per-sample twin.
func TestScoreBatchInterleavedWithTraining(t *testing.T) {
	const d, h, n = 21, 6, 40
	for _, p := range []Precision{Float64, Float32} {
		a := batchTestAE(t, p, MSE, d, h)
		b := batchTestAE(t, p, MSE, d, h)
		xs := batchSamples(n, d)
		got := make([]float64, n)
		want := make([]float64, n)
		for round := 0; round < 3; round++ {
			a.ScoreBatch(got, xs)
			for i, x := range xs {
				want[i] = b.Score(x)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v round %d sample %d: batch %v per-sample %v", p, round, i, got[i], want[i])
				}
			}
			for _, x := range xs {
				a.Train(x)
				b.Train(x)
			}
		}
	}
}

// ScoreBatch charges the op counter exactly as n Score calls would.
func TestScoreBatchOpParity(t *testing.T) {
	const d, h, n = 17, 5, 9
	a := batchTestAE(t, Float64, MSE, d, h)
	b := batchTestAE(t, Float64, MSE, d, h)
	xs := batchSamples(n, d)
	opsA := &opcount.Counter{}
	opsB := &opcount.Counter{}
	a.SetOps(opsA)
	b.SetOps(opsB)
	a.ScoreBatch(make([]float64, n), xs)
	for _, x := range xs {
		b.Score(x)
	}
	if *opsA != *opsB {
		t.Fatalf("batch ops %+v != per-sample ops %+v", *opsA, *opsB)
	}
}

func TestScoreBatchZeroAllocs(t *testing.T) {
	for _, p := range []Precision{Float64, Float32} {
		ae := batchTestAE(t, p, MSE, 64, 22)
		xs := batchSamples(96, 64)
		dst := make([]float64, len(xs))
		if n := testing.AllocsPerRun(100, func() { ae.ScoreBatch(dst, xs) }); n != 0 {
			t.Fatalf("%v: ScoreBatch allocates %v objects per call, want 0", p, n)
		}
	}
}

// ScoreBatch keeps no state of its own: the audit is the same before
// and after a batch on both float backends.
func TestScoreBatchMemoryAccounting(t *testing.T) {
	for _, p := range []Precision{Float64, Float32} {
		ae := batchTestAE(t, p, MSE, 16, 4)
		before := ae.MemoryBytes()
		ae.ScoreBatch(make([]float64, 8), batchSamples(8, 16))
		if after := ae.MemoryBytes(); after != before {
			t.Fatalf("%v: MemoryBytes %d after ScoreBatch, want %d", p, after, before)
		}
	}
}

func TestScoreBatchPanicsOnBadShapes(t *testing.T) {
	ae := batchTestAE(t, Float64, MSE, 8, 3)
	for name, fn := range map[string]func(){
		"dst length":   func() { ae.ScoreBatch(make([]float64, 2), batchSamples(3, 8)) },
		"sample width": func() { ae.ScoreBatch(make([]float64, 2), batchSamples(2, 7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
