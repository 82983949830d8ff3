package oselm

import (
	"math"
	"testing"
	"testing/quick"

	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	r := rng.New(1)
	bad := []Config{
		{Inputs: 0, Hidden: 2, Outputs: 1},
		{Inputs: 2, Hidden: 0, Outputs: 1},
		{Inputs: 2, Hidden: 2, Outputs: 0},
		{Inputs: 2, Hidden: 2, Outputs: 1, Forgetting: -0.5},
		{Inputs: 2, Hidden: 2, Outputs: 1, Forgetting: 1.5},
		{Inputs: 2, Hidden: 2, Outputs: 1, Ridge: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, r); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, cfg)
		}
	}
	m, err := New(Config{Inputs: 3, Hidden: 4, Outputs: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Config()
	if c.Forgetting != 1 || c.Ridge != 1e-3 || c.WeightScale != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// makeRegression builds a noisy linear target so an ELM with a linear
// activation can fit it exactly in the hidden feature space.
func makeRegression(r *rng.Rand, n, d, m int) (xs, ts [][]float64) {
	w := mat.New(d, m)
	r.FillNorm(w.Data, 0, 1)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		r.FillNorm(x, 0, 1)
		t := make([]float64, m)
		mat.MulVecTrans(t, w, x)
		xs = append(xs, x)
		ts = append(ts, t)
	}
	return xs, ts
}

// TestSequentialMatchesBatchRidge is the core RLS-equivalence property:
// training sample-by-sample from the sequential start state must produce
// exactly the batch ridge solution over the same samples.
func TestSequentialMatchesBatchRidge(t *testing.T) {
	r := rng.New(2)
	cfg := Config{Inputs: 5, Hidden: 8, Outputs: 3, Activation: Sigmoid, Ridge: 0.01}
	seq, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	// Clone the random projection into a second model by sharing the
	// draw: create batch model from same rng state via same seed.
	r2 := rng.New(2)
	batch, err := New(cfg, r2)
	if err != nil {
		t.Fatal(err)
	}
	xs, ts := makeRegression(rng.New(3), 60, 5, 3)
	for i := range xs {
		seq.Train(xs[i], ts[i])
	}
	if err := batch.InitTrainBatch(xs, ts); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(seq.Beta(), batch.Beta()); d > 1e-6 {
		t.Fatalf("sequential β deviates from batch ridge by %v", d)
	}
	if seq.SamplesSeen() != 60 || batch.SamplesSeen() != 60 {
		t.Fatalf("SamplesSeen = %d/%d", seq.SamplesSeen(), batch.SamplesSeen())
	}
}

func TestBatchInitThenSequentialMatchesFullBatch(t *testing.T) {
	cfg := Config{Inputs: 4, Hidden: 6, Outputs: 2, Ridge: 0.05}
	a, _ := New(cfg, rng.New(4))
	b, _ := New(cfg, rng.New(4))
	xs, ts := makeRegression(rng.New(5), 80, 4, 2)
	// a: batch on first 40, sequential on rest.
	if err := a.InitTrainBatch(xs[:40], ts[:40]); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 80; i++ {
		a.Train(xs[i], ts[i])
	}
	// b: batch on everything.
	if err := b.InitTrainBatch(xs, ts); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(a.Beta(), b.Beta()); d > 1e-6 {
		t.Fatalf("hybrid training deviates from full batch by %v", d)
	}
}

func TestPredictLearnsFunction(t *testing.T) {
	cfg := Config{Inputs: 2, Hidden: 30, Outputs: 1, Ridge: 1e-4}
	m, _ := New(cfg, rng.New(6))
	r := rng.New(7)
	// Learn f(x) = x0 − 2·x1 with noise-free samples.
	for i := 0; i < 2000; i++ {
		x := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1)}
		m.Train(x, []float64{x[0] - 2*x[1]})
	}
	var worst float64
	for i := 0; i < 200; i++ {
		x := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1)}
		y := m.Predict(nil, x)
		if e := math.Abs(y[0] - (x[0] - 2*x[1])); e > worst {
			worst = e
		}
	}
	if worst > 0.05 {
		t.Fatalf("worst-case prediction error %v, want < 0.05", worst)
	}
}

func TestResetClearsLearning(t *testing.T) {
	cfg := Config{Inputs: 2, Hidden: 4, Outputs: 1}
	m, _ := New(cfg, rng.New(8))
	m.Train([]float64{1, 2}, []float64{3})
	if m.SamplesSeen() != 1 {
		t.Fatal("SamplesSeen not incremented")
	}
	m.Reset()
	if m.SamplesSeen() != 0 {
		t.Fatal("Reset did not clear SamplesSeen")
	}
	if d := maxAbsDiff(m.Beta(), mat.New(m.f.cfg.Hidden, m.f.cfg.Outputs)); d != 0 {
		t.Fatalf("Reset left a β element of magnitude %v", d)
	}
	// Prediction after reset is zero (β = 0).
	y := m.Predict(nil, []float64{1, 1})
	if y[0] != 0 {
		t.Fatalf("post-reset prediction = %v", y)
	}
}

func TestForgettingAdaptsFasterAfterShift(t *testing.T) {
	mk := func(forget float64) *Model {
		m, err := New(Config{Inputs: 1, Hidden: 10, Outputs: 1, Forgetting: forget, Ridge: 0.01}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := mk(1)
	forgetful := mk(0.95)
	r := rng.New(10)
	// Phase 1: y = x. Phase 2: y = −x. The forgetful model should track
	// the new concept with lower error after the switch.
	feed := func(m *Model, slope float64, n int) {
		for i := 0; i < n; i++ {
			x := []float64{r.Uniform(-1, 1)}
			m.Train(x, []float64{slope * x[0]})
		}
	}
	r = rng.New(10)
	feed(plain, 1, 800)
	feed(plain, -1, 200)
	r = rng.New(10)
	feed(forgetful, 1, 800)
	feed(forgetful, -1, 200)
	errOf := func(m *Model) float64 {
		rr := rng.New(11)
		var s float64
		for i := 0; i < 200; i++ {
			x := []float64{rr.Uniform(-1, 1)}
			y := m.Predict(nil, x)
			s += math.Abs(y[0] - (-x[0]))
		}
		return s / 200
	}
	pe, fe := errOf(plain), errOf(forgetful)
	if fe >= pe {
		t.Fatalf("forgetting model error %v not better than plain %v after shift", fe, pe)
	}
}

func TestPredictPanicsOnBadDims(t *testing.T) {
	m, _ := New(Config{Inputs: 2, Hidden: 3, Outputs: 1}, rng.New(12))
	for _, fn := range []func(){
		func() { m.Predict(nil, []float64{1}) },
		func() { m.Predict(make([]float64, 5), []float64{1, 2}) },
		func() { m.Train([]float64{1, 2}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestInitTrainBatchErrors(t *testing.T) {
	m, _ := New(Config{Inputs: 2, Hidden: 3, Outputs: 1}, rng.New(13))
	if err := m.InitTrainBatch(nil, nil); err == nil {
		t.Fatal("expected error on empty batch")
	}
	if err := m.InitTrainBatch([][]float64{{1, 2}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error on bad target dimension")
	}
}

func TestActivationString(t *testing.T) {
	if Sigmoid.String() != "sigmoid" || Tanh.String() != "tanh" || Linear.String() != "linear" {
		t.Fatal("Activation String mismatch")
	}
	if Activation(42).String() != "Activation(42)" {
		t.Fatal("unknown activation formatting")
	}
}

func TestOpsCounting(t *testing.T) {
	m, _ := New(Config{Inputs: 4, Hidden: 5, Outputs: 2}, rng.New(14))
	var c opcount.Counter
	m.SetOps(&c)
	m.Predict(nil, []float64{1, 2, 3, 4})
	if c.MulAdd != uint64(5*4+5*2) {
		t.Fatalf("predict MulAdd = %d, want %d", c.MulAdd, 5*4+5*2)
	}
	if c.Exp != 5 {
		t.Fatalf("predict Exp = %d, want 5", c.Exp)
	}
	before := c
	m.Train([]float64{1, 2, 3, 4}, []float64{0, 0})
	delta := c.Sub(before)
	// Train must cost more than predict: it includes two P·h products.
	if delta.MulAdd <= before.MulAdd {
		t.Fatalf("train MulAdd %d not greater than predict %d", delta.MulAdd, before.MulAdd)
	}
	// Nil counter must be safe.
	m.SetOps(nil)
	m.Predict(nil, []float64{1, 2, 3, 4})
}

func TestMemoryBytes(t *testing.T) {
	m, _ := New(Config{Inputs: 10, Hidden: 4, Outputs: 10}, rng.New(15))
	// W: 40, bias: 4, β: 40, P: 16, scratch h/ph: 4+4, e: 10 → 118 floats
	if got, want := m.MemoryBytes(), 8*118; got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// Property: the RLS update never produces NaNs for bounded inputs and the
// prediction error on the just-trained sample decreases (or stays) after
// training on it.
func TestPropTrainingReducesResidualOnSample(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, err := New(Config{Inputs: 3, Hidden: 6, Outputs: 2, Ridge: 0.01}, r)
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			x := make([]float64, 3)
			r.FillNorm(x, 0, 1)
			tgt := make([]float64, 2)
			r.FillNorm(tgt, 0, 1)
			before := mat.L2Dist(m.Predict(nil, x), tgt)
			m.Train(x, tgt)
			after := mat.L2Dist(m.Predict(nil, x), tgt)
			if math.IsNaN(after) || after > before+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrainD38H22(b *testing.B) {
	m, _ := New(Config{Inputs: 38, Hidden: 22, Outputs: 38}, rng.New(1))
	x := make([]float64, 38)
	rng.New(2).FillNorm(x, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(x, x)
	}
}

func BenchmarkPredictD511H22(b *testing.B) {
	m, _ := New(Config{Inputs: 511, Hidden: 22, Outputs: 511}, rng.New(1))
	x := make([]float64, 511)
	rng.New(2).FillNorm(x, 0, 1)
	dst := make([]float64, 511)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(dst, x)
	}
}

// maxAbsDiff returns the largest absolute element-wise difference
// between two matrices of one shape.
func maxAbsDiff(a, b *mat.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(mat.ErrShape)
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		br := b.Row(i)
		for j, v := range a.Row(i) {
			if d := math.Abs(v - br[j]); d > m {
				m = d
			}
		}
	}
	return m
}
