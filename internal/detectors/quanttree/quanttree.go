// Package quanttree implements the QuantTree histogram for change
// detection in multivariate data streams (Boracchi, Carrera, Cervellera,
// Macciò, ICML 2018) — one of the paper's two batch-based baselines.
//
// A QuantTree recursively splits the training sample with axis-aligned
// cuts at marginal quantiles so that each of the K leaves ("bins")
// receives a target probability π_k (uniform 1/K here, the common
// configuration). Monitoring proceeds in batches of ν samples: each
// sample is routed to its bin, and a histogram statistic (Pearson or
// total variation) over the bin counts is compared to a threshold.
//
// The statistic's key property is distribution-freeness: its null
// distribution depends only on (N, K, ν), never on the data distribution
// or dimension. This package exploits that directly — thresholds are
// calibrated once by Monte Carlo over 1-D uniform data with the same
// (N, K, ν) and the desired false-positive rate.
//
// Being a batch method, the monitor buffers ν samples of D features —
// the memory behaviour the paper's Table 4 measures against the proposed
// sequential detector.
package quanttree

import (
	"fmt"
	"math"
	"sort"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
)

// Statistic selects the histogram test statistic.
type Statistic int

const (
	// Pearson is Σ (y_k − ν·π_k)² / (ν·π_k).
	Pearson Statistic = iota
	// TotalVariation is ½ Σ |y_k/ν − π_k|.
	TotalVariation
)

// String implements fmt.Stringer.
func (s Statistic) String() string {
	if s == TotalVariation {
		return "tv"
	}
	return "pearson"
}

// split is one axis-aligned cut. A sample x falls into this bin when
// x[Dim] ≤ Threshold (Low) or x[Dim] > Threshold (!Low), tested in split
// order; the final bin is the remainder.
type split struct {
	Dim       int
	Threshold float64
	Low       bool
}

// Config parameterises construction.
type Config struct {
	// Bins is K, the number of histogram bins (paper: 32 for NSL-KDD,
	// 16 for the cooling-fan set).
	Bins int
	// BatchSize is ν, the monitoring batch (paper: 480 / 235).
	BatchSize int
	// Statistic selects Pearson (default) or TotalVariation.
	Statistic Statistic
	// Alpha is the target false-positive rate per batch for threshold
	// calibration; 0 means 0.01.
	Alpha float64
	// CalibrationTrials is the Monte-Carlo sample count; 0 means 3000.
	CalibrationTrials int
}

func (c Config) withDefaults() (Config, error) {
	if c.Bins < 2 {
		return c, fmt.Errorf("quanttree: need ≥ 2 bins, got %d", c.Bins)
	}
	if c.BatchSize < c.Bins {
		return c, fmt.Errorf("quanttree: batch size %d below bin count %d", c.BatchSize, c.Bins)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return c, fmt.Errorf("quanttree: alpha %v out of (0,1)", c.Alpha)
	}
	if c.CalibrationTrials == 0 {
		c.CalibrationTrials = 3000
	}
	return c, nil
}

// Tree is a trained QuantTree monitor. Not safe for concurrent use.
type Tree struct {
	cfg       Config
	splits    []split
	probs     []float64 // target bin probabilities
	threshold float64
	trainN    int

	counts []int
	buf    [][]float64 // buffered batch samples (batch-method memory)
	dims   int

	seen       int
	batches    int
	detections int
	lastStat   float64
	ops        *opcount.Counter
}

// buildSplits constructs the K−1 cuts over the training data, consuming
// it bin by bin so each leaf receives ≈ N/K training points.
func buildSplits(train [][]float64, bins int, r *rng.Rand) []split {
	remaining := make([][]float64, len(train))
	copy(remaining, train)
	dims := len(train[0])
	splits := make([]split, 0, bins-1)
	for k := 0; k < bins-1; k++ {
		nRem := len(remaining)
		// Target count for this bin out of what remains: uniform target
		// probabilities make it nRem/(bins−k).
		want := int(math.Round(float64(nRem) / float64(bins-k)))
		if want < 1 {
			want = 1
		}
		if want > nRem {
			want = nRem
		}
		dim := r.Intn(dims)
		low := r.Bernoulli(0.5)
		vals := make([]float64, nRem)
		for i, x := range remaining {
			vals[i] = x[dim]
		}
		sort.Float64s(vals)
		var thr float64
		if low {
			thr = vals[want-1]
		} else {
			thr = vals[nRem-want]
		}
		sp := split{Dim: dim, Threshold: thr, Low: low}
		splits = append(splits, sp)
		next := remaining[:0]
		taken := 0
		for _, x := range remaining {
			if taken < want && sp.matches(x) {
				taken++
				continue
			}
			next = append(next, x)
		}
		remaining = next
		if len(remaining) == 0 {
			break
		}
	}
	return splits
}

func (s split) matches(x []float64) bool {
	if s.Low {
		return x[s.Dim] <= s.Threshold
	}
	return x[s.Dim] >= s.Threshold
}

// New trains a QuantTree on the training set and calibrates its detection
// threshold by Monte Carlo (distribution-free in (N, K, ν)).
func New(train [][]float64, cfg Config, r *rng.Rand) (*Tree, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(train) < c.Bins {
		return nil, fmt.Errorf("quanttree: %d training samples for %d bins", len(train), c.Bins)
	}
	t := &Tree{
		cfg:    c,
		splits: buildSplits(train, c.Bins, r),
		probs:  make([]float64, c.Bins),
		trainN: len(train),
		counts: make([]int, c.Bins),
		buf:    make([][]float64, 0, c.BatchSize),
		dims:   len(train[0]),
	}
	for i := range t.probs {
		t.probs[i] = 1 / float64(c.Bins)
	}
	t.threshold = calibrateThreshold(len(train), c, r.Split())
	return t, nil
}

// calibrateThreshold estimates the (1−α) quantile of the null statistic
// distribution by simulating trees on 1-D uniform data — valid for any
// data distribution by the QuantTree distribution-free theorem.
func calibrateThreshold(trainN int, c Config, r *rng.Rand) float64 {
	statsSample := make([]float64, c.CalibrationTrials)
	train := make([][]float64, trainN)
	batch := make([]float64, c.BatchSize)
	probs := make([]float64, c.Bins)
	for i := range probs {
		probs[i] = 1 / float64(c.Bins)
	}
	expected := make([]float64, c.Bins)
	for i := range expected {
		expected[i] = float64(c.BatchSize) * probs[i]
	}
	counts := make([]int, c.Bins)
	for trial := 0; trial < c.CalibrationTrials; trial++ {
		for i := range train {
			train[i] = []float64{r.Float64()}
		}
		splits := buildSplits(train, c.Bins, r)
		for i := range counts {
			counts[i] = 0
		}
		for i := range batch {
			batch[i] = r.Float64()
			counts[binOf(splits, []float64{batch[i]})]++
		}
		switch c.Statistic {
		case TotalVariation:
			statsSample[trial] = stats.TotalVariation(counts, probs)
		default:
			statsSample[trial] = stats.ChiSquareStatistic(counts, expected)
		}
	}
	sort.Float64s(statsSample)
	return stats.QuantileSorted(statsSample, 1-c.Alpha)
}

// binOf routes x through the splits; the first matching split's bin wins
// and the final bin is the remainder.
func binOf(splits []split, x []float64) int {
	for i, s := range splits {
		if s.matches(x) {
			return i
		}
	}
	return len(splits)
}

// Retrain rebuilds the tree (and recalibrates the threshold for the new
// reference size) on fresh training data — the re-baselining step after
// a drift adaptation, without which every post-drift batch would keep
// firing against the stale reference.
func (t *Tree) Retrain(train [][]float64, r *rng.Rand) error {
	if len(train) < t.cfg.Bins {
		return fmt.Errorf("quanttree: %d retraining samples for %d bins", len(train), t.cfg.Bins)
	}
	if len(train[0]) != t.dims {
		return fmt.Errorf("quanttree: retraining dimension %d, want %d", len(train[0]), t.dims)
	}
	t.splits = buildSplits(train, t.cfg.Bins, r)
	if len(train) != t.trainN {
		t.threshold = calibrateThreshold(len(train), t.cfg, r.Split())
		t.trainN = len(train)
	}
	t.resetBatch()
	return nil
}

// Bin returns the histogram bin index of x.
func (t *Tree) Bin(x []float64) int {
	t.ops.AddCmp(len(t.splits))
	return binOf(t.splits, x)
}

// Observe folds one sample into the current batch. When the batch is
// full it is tested and cleared: checked reports that a test happened and
// drift its outcome.
func (t *Tree) Observe(x []float64) (checked, drift bool) {
	if len(x) != t.dims {
		panic(fmt.Sprintf("quanttree: sample dimension %d, want %d", len(x), t.dims))
	}
	t.seen++
	t.counts[t.Bin(x)]++
	// Batch methods retain the raw samples (retraining after a detection
	// needs them); the copy is part of the audited memory cost.
	buf := make([]float64, len(x))
	copy(buf, x)
	t.buf = append(t.buf, buf)
	if len(t.buf) < t.cfg.BatchSize {
		return false, false
	}
	t.batches++
	t.lastStat = t.statistic()
	drift = t.lastStat >= t.threshold
	t.ops.AddCmp(1)
	if drift {
		t.detections++
	}
	t.resetBatch()
	return true, drift
}

func (t *Tree) statistic() float64 {
	switch t.cfg.Statistic {
	case TotalVariation:
		t.ops.AddAbs(t.cfg.Bins)
		t.ops.AddAdd(t.cfg.Bins)
		return stats.TotalVariation(t.counts, t.probs)
	default:
		expected := make([]float64, t.cfg.Bins)
		for i := range expected {
			expected[i] = float64(t.cfg.BatchSize) * t.probs[i]
		}
		t.ops.AddMulAdd(2 * t.cfg.Bins)
		t.ops.AddDiv(t.cfg.Bins)
		return stats.ChiSquareStatistic(t.counts, expected)
	}
}

func (t *Tree) resetBatch() {
	for i := range t.counts {
		t.counts[i] = 0
	}
	t.buf = t.buf[:0]
}

// Batch returns the samples buffered so far in the current batch (views).
func (t *Tree) Batch() [][]float64 { return t.buf }

// Threshold returns the calibrated detection threshold.
func (t *Tree) Threshold() float64 { return t.threshold }

// Batches returns how many batches have been tested.
func (t *Tree) Batches() int { return t.batches }

// Detections returns how many batches crossed the threshold.
func (t *Tree) Detections() int { return t.detections }

// BatchSize returns ν.
func (t *Tree) BatchSize() int { return t.cfg.BatchSize }

// SetOps attaches an operation counter.
func (t *Tree) SetOps(c *opcount.Counter) { t.ops = c }

// MemoryBytes audits retained state: the split table, bin counters,
// target probabilities, and — dominating everything — the ν×D batch
// buffer.
func (t *Tree) MemoryBytes() int {
	const f = 8
	splitBytes := len(t.splits) * (f + 16) // threshold + dim/flag words
	binBytes := f*len(t.probs) + 8*len(t.counts)
	bufBytes := t.cfg.BatchSize * t.dims * f
	return splitBytes + binBytes + bufBytes
}
