package model

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// requireSameMulti fails unless a and b hold the same learned state: the
// checkpoint bytes, and each instance's β and P bits and sample count.
func requireSameMulti(t *testing.T, a, b *Multi, what string) {
	t.Helper()
	for i := range a.instances {
		ma, mb := a.Instance(i).Model(), b.Instance(i).Model()
		if !sameBits(ma.Beta().Data, mb.Beta().Data) || !sameBits(ma.P().Data, mb.P().Data) {
			t.Fatalf("%s: instance %d β or P differs", what, i)
		}
		if ma.SamplesSeen() != mb.SamplesSeen() || ma.WatchdogResets() != mb.WatchdogResets() {
			t.Fatalf("%s: instance %d counters differ", what, i)
		}
	}
	var ba, bb bytes.Buffer
	if _, err := a.Save(&ba, a.Precision()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Save(&bb, b.Precision()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("%s: checkpoint bytes differ", what)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPredictTrainMatchesPredictThenTrain pins training from the score's
// forward pass: PredictTrain and TrainClosest leave the labels, score
// bits, learned state and operation counts that Predict followed by
// Train leaves, on both backends, every metric, C ∈ {1, 2, 3} and with
// and without forgetting. A non-finite score must not train under
// PredictTrain.
func TestPredictTrainMatchesPredictThenTrain(t *testing.T) {
	const d, h = 38, 12
	huge := make([]float64, d)
	for i := range huge {
		huge[i] = 1.5e308
	}
	for _, prec := range []oselm.Precision{oselm.Float64, oselm.Float32} {
		for _, metric := range []oselm.ScoreMetric{oselm.MSE, oselm.L1Mean, oselm.L2Norm} {
			for _, classes := range []int{1, 2, 3} {
				for _, forget := range []float64{1, 0.97} {
					what := fmt.Sprintf("%v/%v/C=%d/α=%v", prec, metric, classes, forget)
					cfg := Config{Classes: classes, Inputs: d, Hidden: h, Metric: metric,
						Forgetting: forget, Ridge: 1e-2, Precision: prec}
					a, err := New(cfg, rng.New(5))
					if err != nil {
						t.Fatal(err)
					}
					b, _ := New(cfg, rng.New(5))
					var opsA, opsB opcount.Counter
					a.SetOps(&opsA)
					b.SetOps(&opsB)
					r := rng.New(6)
					x := make([]float64, d)
					for i := 0; i < 90; i++ {
						r.FillNorm(x, float64(i%classes)*3, 1)
						var la, lb int
						var sa, sb float64
						if i%2 == 0 {
							la, sa = a.PredictTrain(x)
						} else {
							la, sa = a.TrainClosest(x)
						}
						lb, sb = b.Predict(x)
						b.Train(x, lb)
						if la != lb || math.Float64bits(sa) != math.Float64bits(sb) {
							t.Fatalf("%s sample %d: (%d, %v) vs (%d, %v)", what, i, la, sa, lb, sb)
						}
					}
					requireSameMulti(t, a, b, what)
					if opsA != opsB {
						t.Fatalf("%s: op counts %+v vs %+v", what, opsA, opsB)
					}

					seen := a.Instance(0).SamplesSeen()
					if _, s := a.PredictTrain(huge); !math.IsNaN(s) && !math.IsInf(s, 0) {
						t.Fatalf("%s: score of a 1.5e308 sample = %v, want NaN or ±Inf", what, s)
					}
					b.Predict(huge)
					if got := a.Instance(0).SamplesSeen(); got != seen {
						t.Fatalf("%s: PredictTrain trained on a non-finite score (%d → %d samples)", what, seen, got)
					}
					requireSameMulti(t, a, b, what+" after a non-finite score")
				}
			}
		}
	}
}

func TestPredictTrainZeroAllocs(t *testing.T) {
	m, err := New(Config{Classes: 3, Inputs: 64, Hidden: 22}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	rng.New(3).FillUniform(x, -1, 1)
	if n := testing.AllocsPerRun(200, func() { m.PredictTrain(x) }); n != 0 {
		t.Fatalf("PredictTrain allocates %v objects per call, want 0", n)
	}
}

// BenchmarkPredictTrain times Algorithm 2's retraining with label
// prediction at the cooling-fan shape (one class) and the NSL-KDD shape
// (two classes): "reuse" trains from the score's forward pass,
// "predict+train" recomputes it in Train.
func BenchmarkPredictTrain(b *testing.B) {
	for _, s := range []struct{ d, h, c int }{{511, 22, 1}, {38, 22, 2}} {
		for _, reuse := range []bool{true, false} {
			name := fmt.Sprintf("D%d_H%d_C%d/predict+train", s.d, s.h, s.c)
			if reuse {
				name = fmt.Sprintf("D%d_H%d_C%d/reuse", s.d, s.h, s.c)
			}
			b.Run(name, func(b *testing.B) {
				m, err := New(Config{Classes: s.c, Inputs: s.d, Hidden: s.h}, rng.New(11))
				if err != nil {
					b.Fatal(err)
				}
				x := make([]float64, s.d)
				rng.New(3).FillUniform(x, -1, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if reuse {
						m.PredictTrain(x)
					} else {
						l, _ := m.Predict(x)
						m.Train(x, l)
					}
				}
			})
		}
	}
}
