package model

import (
	"fmt"
	"math"
	"testing"

	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// witnessModel returns a trained C-class model over D features at the
// given precision and metric, with one sample of class 0 to poison.
// With overflowCol ≥ 0, every instance's W column overflowCol is made
// positive and its β column overflowCol set to the backend's largest
// finite value, before any narrowing: a +Inf in that feature then
// saturates every hidden unit to 1, and the reconstruction of that
// feature overflows to +Inf.
func witnessModel(t *testing.T, prec oselm.Precision, metric oselm.ScoreMetric, classes, dims, overflowCol int) (*Multi, []float64) {
	t.Helper()
	m, err := New(Config{Classes: classes, Inputs: dims, Hidden: 8, Ridge: 1e-2, Metric: metric}, rng.New(uint64(31*classes+dims)))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	xs, labels := make([][]float64, 0, 40*classes), make([]int, 0, 40*classes)
	for i := 0; i < 40*classes; i++ {
		x := make([]float64, dims)
		for j := range x {
			x[j] = r.Normal(5*float64(i%classes), 0.3)
		}
		xs, labels = append(xs, x), append(labels, i%classes)
	}
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	if overflowCol >= 0 {
		big := math.MaxFloat64
		if prec == oselm.Float32 {
			big = math.MaxFloat32
		}
		for _, ae := range m.instances {
			w, _, beta := ae.Model().Weights() // live views at float64
			for i := overflowCol; i < len(beta); i += dims {
				w[i], beta[i] = math.Abs(w[i])+0.1, big
			}
		}
	}
	if prec != oselm.Float64 {
		if m, err = m.ConvertPrecision(prec); err != nil {
			t.Fatal(err)
		}
	}
	return m, xs[0]
}

// TestNonFiniteFeatureGivesNonFiniteScore pins the premise the
// detector's ingestion guard rests on (core.Detector scores a sample
// before it scans it): every score metric sums a term in each feature
// at float64 on both backends, so a NaN or ±Inf feature anywhere makes
// Predict's winning score NaN or +Inf. It covers every feature index,
// C = 1–3, both detector widths, and a reconstruction that is +Inf at
// the +Inf feature itself, where the residual is Inf − Inf.
func TestNonFiniteFeatureGivesNonFiniteScore(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, prec := range []oselm.Precision{oselm.Float64, oselm.Float32} {
		for _, metric := range []oselm.ScoreMetric{oselm.MSE, oselm.L1Mean, oselm.L2Norm} {
			for _, classes := range []int{1, 2, 3} {
				for _, dims := range []int{3, 38} {
					name := fmt.Sprintf("%v/%v/C%d/D%d", prec, metric, classes, dims)
					m, clean := witnessModel(t, prec, metric, classes, dims, -1)
					if _, s := m.Predict(clean); !finite(s) {
						t.Fatalf("%s: clean sample scored %v", name, s)
					}
					x := append([]float64(nil), clean...)
					for j := range x {
						for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
							x[j] = bad
							if _, s := m.Predict(x); finite(s) {
								t.Fatalf("%s: x[%d] = %v scored %v", name, j, bad, s)
							}
						}
						x[j] = clean[j]
					}
					for j := range x {
						m, _ := witnessModel(t, prec, metric, classes, dims, j)
						x[j] = math.Inf(1)
						if y := m.Instance(0).Model().Predict(nil, x); !math.IsInf(y[j], 1) {
							t.Fatalf("%s: reconstruction[%d] = %v, want +Inf", name, j, y[j])
						}
						if _, s := m.Predict(x); finite(s) {
							t.Fatalf("%s: x[%d] = y[%d] = +Inf scored %v", name, j, j, s)
						}
						x[j] = clean[j]
					}
				}
			}
		}
	}
}
