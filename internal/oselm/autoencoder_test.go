package oselm

import (
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// lineSamples draws points near the 1-D manifold (t, 2t, −t) embedded in
// R³, which a 2-hidden-unit autoencoder can compress well.
func lineSamples(r *rng.Rand, n int, noise float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		t := r.Uniform(-1, 1)
		xs[i] = []float64{
			t + r.Normal(0, noise),
			2*t + r.Normal(0, noise),
			-t + r.Normal(0, noise),
		}
	}
	return xs
}

func TestAutoencoderScoresInDistributionLower(t *testing.T) {
	ae, err := NewAutoencoder(Config{Inputs: 3, Hidden: 6, Ridge: 1e-3}, MSE, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for _, x := range lineSamples(r, 3000, 0.01) {
		ae.Train(x)
	}
	var in, out float64
	for i := 0; i < 200; i++ {
		in += ae.Score(lineSamples(r, 1, 0.01)[0])
		// Off-manifold point.
		y := make([]float64, 3)
		r.FillNorm(y, 3, 1)
		out += ae.Score(y)
	}
	if in/200*5 > out/200 {
		t.Fatalf("in-distribution score %v not clearly below out-of-distribution %v", in/200, out/200)
	}
}

func TestAutoencoderMetrics(t *testing.T) {
	for _, metric := range []ScoreMetric{MSE, L1Mean, L2Norm} {
		ae, err := NewAutoencoder(Config{Inputs: 2, Hidden: 3}, metric, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		// Fresh model: β = 0 so reconstruction is 0 and the score of x is
		// a known function of x.
		x := []float64{3, 4}
		got := ae.Score(x)
		var want float64
		switch metric {
		case MSE:
			want = (9.0 + 16.0) / 2
		case L1Mean:
			want = (3.0 + 4.0) / 2
		case L2Norm:
			want = 5
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v score = %v, want %v", metric, got, want)
		}
	}
}

func TestScoreMetricString(t *testing.T) {
	if MSE.String() != "mse" || L1Mean.String() != "l1" || L2Norm.String() != "l2" {
		t.Fatal("metric names")
	}
	if ScoreMetric(9).String() != "unknown" {
		t.Fatal("unknown metric name")
	}
}

func TestAutoencoderBatchInitAndReset(t *testing.T) {
	ae, _ := NewAutoencoder(Config{Inputs: 3, Hidden: 4}, MSE, rng.New(4))
	xs := lineSamples(rng.New(5), 50, 0.05)
	if err := ae.InitTrainBatch(xs); err != nil {
		t.Fatal(err)
	}
	if ae.SamplesSeen() != 50 {
		t.Fatalf("SamplesSeen = %d", ae.SamplesSeen())
	}
	trained := ae.Score(xs[0])
	ae.Reset()
	if ae.SamplesSeen() != 0 {
		t.Fatal("Reset failed")
	}
	fresh := ae.Score(xs[0])
	if fresh <= trained {
		t.Fatalf("reset score %v should exceed trained score %v", fresh, trained)
	}
}

func TestAutoencoderOpsAndMemory(t *testing.T) {
	ae, _ := NewAutoencoder(Config{Inputs: 4, Hidden: 2}, L1Mean, rng.New(6))
	var c opcount.Counter
	ae.SetOps(&c)
	ae.Score([]float64{1, 2, 3, 4})
	if c.Abs != 4 {
		t.Fatalf("L1 score Abs count = %d, want 4", c.Abs)
	}
	// The reconstruction lives in the model's residual buffer.
	if ae.MemoryBytes() != ae.Model().MemoryBytes() {
		t.Fatalf("autoencoder memory %d, want the model's %d", ae.MemoryBytes(), ae.Model().MemoryBytes())
	}
}

func TestNewAutoencoderPropagatesConfigError(t *testing.T) {
	if _, err := NewAutoencoder(Config{Inputs: 0, Hidden: 2}, MSE, rng.New(7)); err == nil {
		t.Fatal("expected config error")
	}
}
