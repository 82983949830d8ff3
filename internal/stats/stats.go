// Package stats provides the statistical primitives shared by the drift
// detectors: streaming moments (Welford), exponentially weighted averages,
// sample quantiles, histogram test statistics, and Gaussian distribution
// helpers.
//
// Everything here is sequential-friendly: the streaming accumulators hold
// O(1) or O(D) state, which is what makes them deployable on the paper's
// 264 kB target device.
package stats

import (
	"math"
	"sort"
)

// MeanStd returns the mean and (population) standard deviation of xs.
// It returns (0, 0) for an empty slice.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	n := float64(len(xs))
	for _, v := range xs {
		mean += v
	}
	mean /= n
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += float64(d * d)
	}
	return mean, math.Sqrt(ss / n)
}

// Quantile returns the q-th sample quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// QuantileSorted is Quantile for an already ascending-sorted sample,
// avoiding the copy and sort.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// NormalQuantile returns the x with P(Z ≤ x) = p for a standard normal Z.
// It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires p in (0,1)")
	}
	return -math.Sqrt2 * math.Erfinv(1-2*p)
}

// ChiSquareStatistic returns the Pearson statistic
// Σ (observedᵢ − expectedᵢ)² / expectedᵢ. Bins with zero expectation are
// skipped (they contribute nothing under the null).
func ChiSquareStatistic(observed []int, expected []float64) float64 {
	if len(observed) != len(expected) {
		panic("stats: chi-square length mismatch")
	}
	var s float64
	for i, o := range observed {
		e := expected[i]
		if e <= 0 {
			continue
		}
		d := float64(o) - e
		s += d * d / e
	}
	return s
}

// TotalVariation returns ½ Σ |observedᵢ/n − expectedProbᵢ| for bin counts
// observed summing to n against a reference probability vector.
func TotalVariation(observed []int, expectedProb []float64) float64 {
	if len(observed) != len(expectedProb) {
		panic("stats: total-variation length mismatch")
	}
	n := 0
	for _, o := range observed {
		n += o
	}
	if n == 0 {
		return 0
	}
	inv := 1 / float64(n)
	var s float64
	for i, o := range observed {
		s += math.Abs(float64(float64(o)*inv) - expectedProb[i])
	}
	return 0.5 * s
}

// MovingAccuracy tracks windowed classification accuracy over a stream —
// the quantity plotted in the paper's Figure 4.
type MovingAccuracy struct {
	window []bool
	head   int
	filled int
	hits   int
}

// NewMovingAccuracy returns a tracker over the given window length.
func NewMovingAccuracy(window int) *MovingAccuracy {
	if window <= 0 {
		panic("stats: MovingAccuracy window must be positive")
	}
	return &MovingAccuracy{window: make([]bool, window)}
}

// Observe records whether the latest prediction was correct.
func (m *MovingAccuracy) Observe(correct bool) {
	if m.filled == len(m.window) {
		if m.window[m.head] {
			m.hits--
		}
	} else {
		m.filled++
	}
	m.window[m.head] = correct
	if correct {
		m.hits++
	}
	m.head++
	if m.head == len(m.window) {
		m.head = 0
	}
}

// Value returns the fraction of correct predictions in the window, or 0
// before any observation.
func (m *MovingAccuracy) Value() float64 {
	if m.filled == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.filled)
}

// Count returns how many observations are currently in the window.
func (m *MovingAccuracy) Count() int { return m.filled }
