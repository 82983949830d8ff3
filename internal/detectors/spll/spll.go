// Package spll implements the Semi-Parametric Log-Likelihood change
// detector (Kuncheva, IEEE TKDE 2013) — the paper's second batch-based
// baseline.
//
// SPLL models a reference window with a Gaussian mixture fitted the
// cheap way: k-means clusters with a shared (pooled) covariance matrix.
// The change statistic for a test window is the average, over its ν
// samples, of the squared Mahalanobis distance to the nearest cluster
// mean:
//
//	SPLL(W) = (1/ν) · Σ_{x∈W} min_c (x−μ_c)ᵀ Σ⁻¹ (x−μ_c)
//
// Under the reference distribution each term is approximately χ²_D, so
// the statistic concentrates near D; a distribution shift inflates (or,
// for a collapse, deflates) it. The detection threshold is calibrated by
// parametric bootstrap: synthetic batches are drawn from the fitted
// mixture itself and the empirical (1−α) quantile of their statistics is
// used.
//
// Like QuantTree this is a batch method: it buffers ν raw samples and —
// dominating the paper's Table 4 memory audit — holds the D×D pooled
// covariance factorisation (for D = 511 that alone is ≈ 2 MB, matching
// the paper's ≈ 1.9 MB SPLL footprint).
package spll

import (
	"fmt"
	"math"
	"sort"

	"edgedrift/internal/kmeans"
	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
)

// Config parameterises the detector.
type Config struct {
	// Clusters is the k-means cluster count c; 0 means 3 (Kuncheva's
	// default).
	Clusters int
	// BatchSize is ν, the monitoring batch (paper: 480 / 235).
	BatchSize int
	// Alpha is the per-batch false-positive target for calibration;
	// 0 means 0.01.
	Alpha float64
	// CalibrationTrials is the bootstrap batch count; 0 means 300.
	CalibrationTrials int
	// TwoSided also flags batches whose statistic falls below the α
	// quantile (distribution collapse); default one-sided.
	TwoSided bool
	// Ridge inflates the pooled covariance diagonal for invertibility;
	// 0 means an adaptive value (1e-3 of the mean diagonal plus 1e-9).
	Ridge float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Clusters == 0 {
		c.Clusters = 3
	}
	if c.Clusters < 1 {
		return c, fmt.Errorf("spll: clusters %d", c.Clusters)
	}
	if c.BatchSize < 1 {
		return c, fmt.Errorf("spll: batch size %d", c.BatchSize)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return c, fmt.Errorf("spll: alpha %v out of (0,1)", c.Alpha)
	}
	if c.CalibrationTrials == 0 {
		c.CalibrationTrials = 300
	}
	if c.Ridge < 0 {
		return c, fmt.Errorf("spll: negative ridge")
	}
	return c, nil
}

// Detector is a trained SPLL monitor. Not safe for concurrent use.
type Detector struct {
	cfg   Config
	dims  int
	means [][]float64
	// chol is the lower Cholesky factor of the pooled covariance; the
	// Mahalanobis form solves against it rather than inverting.
	chol *mat.Matrix

	hi, lo float64 // detection thresholds

	buf        [][]float64
	seen       int
	batches    int
	detections int
	lastStat   float64
	scratch    []float64
	solveBuf   []float64
	ops        *opcount.Counter
}

// New fits the semi-parametric model on train and calibrates thresholds.
func New(train [][]float64, cfg Config, r *rng.Rand) (*Detector, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(train) < c.Clusters {
		return nil, fmt.Errorf("spll: %d samples for %d clusters", len(train), c.Clusters)
	}
	dims := len(train[0])
	km := kmeans.Run(train, kmeans.Config{K: c.Clusters}, r)

	// Pooled covariance of residuals about each sample's cluster mean.
	cov := mat.New(dims, dims)
	resid := make([]float64, dims)
	for i, x := range train {
		mat.SubVec(resid, x, km.Centroids[km.Assign[i]])
		cov.AddScaledOuter(1, resid, resid)
	}
	cov.Scale(1 / float64(len(train)))

	ridge := c.Ridge
	if ridge == 0 {
		var trace float64
		for i := 0; i < dims; i++ {
			trace += cov.At(i, i)
		}
		ridge = 1e-3*trace/float64(dims) + 1e-9
	}
	cov.AddDiag(ridge)

	chol := mat.New(dims, dims)
	// Escalate the ridge until the factorisation succeeds; degenerate
	// training data (constant features) needs it.
	for attempt := 0; ; attempt++ {
		if err := mat.Cholesky(chol, cov); err == nil {
			break
		}
		if attempt == 8 {
			return nil, fmt.Errorf("spll: covariance not positive definite after regularisation")
		}
		ridge *= 10
		cov.AddDiag(ridge)
	}

	d := &Detector{
		cfg:      c,
		dims:     dims,
		means:    km.Centroids,
		chol:     chol,
		buf:      make([][]float64, 0, c.BatchSize),
		scratch:  make([]float64, dims),
		solveBuf: make([]float64, dims),
	}
	d.calibrate(r.Split())
	return d, nil
}

// mahalanobisMin returns min_c (x−μ_c)ᵀ Σ⁻¹ (x−μ_c) via the Cholesky
// solve: with Σ = L·Lᵀ and L·y = (x−μ), the form equals ‖y‖².
func (d *Detector) mahalanobisMin(x []float64) float64 {
	best := -1.0
	for _, mu := range d.means {
		mat.SubVec(d.scratch, x, mu)
		// Forward substitution only: solve L·y = resid.
		y := d.solveBuf
		for i := 0; i < d.dims; i++ {
			s := d.scratch[i]
			row := d.chol.Row(i)
			for k := 0; k < i; k++ {
				s -= row[k] * y[k]
			}
			y[i] = s / row[i]
		}
		var q float64
		for _, v := range y {
			q += v * v
		}
		if best < 0 || q < best {
			best = q
		}
	}
	// Account the dominant cost: per cluster one triangular solve
	// (≈ D²/2 MACs) plus the norm.
	d.ops.AddMulAdd(len(d.means) * (d.dims*d.dims/2 + d.dims))
	d.ops.AddDiv(len(d.means) * d.dims)
	d.ops.AddCmp(len(d.means))
	return best
}

// statistic computes the SPLL statistic over the buffered batch.
func (d *Detector) statistic(batch [][]float64) float64 {
	var s float64
	for _, x := range batch {
		s += d.mahalanobisMin(x)
	}
	return s / float64(len(batch))
}

// calibrate draws bootstrap batches from the fitted mixture and sets
// thresholds at the α and 1−α empirical quantiles.
func (d *Detector) calibrate(r *rng.Rand) {
	trials := d.cfg.CalibrationTrials
	samples := make([]float64, trials)
	z := make([]float64, d.dims)
	x := make([]float64, d.dims)
	for t := 0; t < trials; t++ {
		var sum float64
		for b := 0; b < d.cfg.BatchSize; b++ {
			mu := d.means[r.Intn(len(d.means))]
			r.FillNorm(z, 0, 1)
			// x = μ + L·z
			for i := 0; i < d.dims; i++ {
				row := d.chol.Row(i)
				var s float64
				for k := 0; k <= i; k++ {
					s += row[k] * z[k]
				}
				x[i] = mu[i] + s
			}
			sum += d.mahalanobisMin(x)
		}
		samples[t] = sum / float64(d.cfg.BatchSize)
	}
	sort.Float64s(samples)
	d.hi = stats.QuantileSorted(samples, 1-d.cfg.Alpha)
	d.lo = stats.QuantileSorted(samples, d.cfg.Alpha)
}

// Retrain refits the semi-parametric model (clusters and pooled
// covariance) on fresh training data — the re-baselining step after a
// drift adaptation. The detection thresholds are kept: under the null
// the SPLL statistic concentrates near the dimension D for any fitted
// mixture, so the calibrated quantiles transfer across refits and the
// expensive parametric bootstrap runs only at construction.
func (d *Detector) Retrain(train [][]float64, r *rng.Rand) error {
	if len(train) < 3*d.cfg.Clusters {
		return fmt.Errorf("spll: %d retraining samples for %d clusters", len(train), d.cfg.Clusters)
	}
	if len(train[0]) != d.dims {
		return fmt.Errorf("spll: retraining dimension %d, want %d", len(train[0]), d.dims)
	}
	// Holdout split: the model is fitted on the first two thirds and the
	// threshold moments are measured on the final third, so the quantiles
	// reflect out-of-sample behaviour (in-sample moments are
	// optimistically low and would re-fire on the very next batch).
	cut := len(train) * 2 / 3
	fit, holdout := train[:cut], train[cut:]
	km := kmeans.Run(fit, kmeans.Config{K: d.cfg.Clusters}, r)
	cov := mat.New(d.dims, d.dims)
	resid := make([]float64, d.dims)
	for i, x := range fit {
		mat.SubVec(resid, x, km.Centroids[km.Assign[i]])
		cov.AddScaledOuter(1, resid, resid)
	}
	cov.Scale(1 / float64(len(fit)))
	ridge := d.cfg.Ridge
	if ridge == 0 {
		var trace float64
		for i := 0; i < d.dims; i++ {
			trace += cov.At(i, i)
		}
		ridge = 1e-3*trace/float64(d.dims) + 1e-9
	}
	cov.AddDiag(ridge)
	chol := mat.New(d.dims, d.dims)
	for attempt := 0; ; attempt++ {
		if err := mat.Cholesky(chol, cov); err == nil {
			break
		}
		if attempt == 8 {
			return fmt.Errorf("spll: covariance not positive definite after regularisation")
		}
		ridge *= 10
		cov.AddDiag(ridge)
	}
	d.means = km.Centroids
	d.chol = chol
	d.buf = d.buf[:0]
	// Recalibrate thresholds analytically instead of re-running the
	// bootstrap: the batch statistic is a mean of BatchSize per-sample
	// values, so with the per-sample moments measured on the retraining
	// data (which include the fit error a bootstrap would miss) the CLT
	// gives the batch quantiles directly.
	var run stats.Running
	for _, x := range holdout {
		run.Observe(d.mahalanobisMin(x))
	}
	// The band covers both the batch-mean variance (σ²/ν) and the
	// uncertainty of the holdout mean itself (σ²/n_holdout) — with a
	// single window of data the latter is not negligible.
	z := stats.NormalQuantile(1 - d.cfg.Alpha)
	se := run.Std() * math.Sqrt(1/float64(d.cfg.BatchSize)+1/float64(run.N()))
	d.hi = run.Mean() + z*se
	d.lo = run.Mean() - z*se
	// Dominant refit cost: covariance accumulation (n·D²) plus the
	// Cholesky factorisation (D³/6); the moment pass is already charged
	// by mahalanobisMin.
	d.ops.AddMulAdd(len(train)*d.dims*d.dims + d.dims*d.dims*d.dims/6)
	return nil
}

// Observe folds one sample into the current batch; when full, the batch
// is tested and cleared.
func (d *Detector) Observe(x []float64) (checked, drift bool) {
	if len(x) != d.dims {
		panic(fmt.Sprintf("spll: sample dimension %d, want %d", len(x), d.dims))
	}
	d.seen++
	buf := make([]float64, len(x))
	copy(buf, x)
	d.buf = append(d.buf, buf)
	if len(d.buf) < d.cfg.BatchSize {
		return false, false
	}
	d.batches++
	d.lastStat = d.statistic(d.buf)
	drift = d.lastStat >= d.hi || (d.cfg.TwoSided && d.lastStat <= d.lo)
	d.ops.AddCmp(2)
	if drift {
		d.detections++
	}
	d.buf = d.buf[:0]
	return true, drift
}

// Thresholds returns the calibrated (low, high) detection thresholds.
func (d *Detector) Thresholds() (lo, hi float64) { return d.lo, d.hi }

// Batches returns how many batches have been tested.
func (d *Detector) Batches() int { return d.batches }

// Detections returns how many tested batches flagged a change.
func (d *Detector) Detections() int { return d.detections }

// BatchSize returns ν.
func (d *Detector) BatchSize() int { return d.cfg.BatchSize }

// Means returns the fitted cluster means (views).
func (d *Detector) Means() [][]float64 { return d.means }

// SetOps attaches an operation counter.
func (d *Detector) SetOps(c *opcount.Counter) { d.ops = c }

// MemoryBytes audits retained state: the D×D covariance factor (the
// dominant term), cluster means, scratch vectors, and the ν×D batch
// buffer.
func (d *Detector) MemoryBytes() int {
	const f = 8
	covBytes := d.dims * d.dims * f
	meanBytes := len(d.means) * d.dims * f
	scratchBytes := 2 * d.dims * f
	bufBytes := d.cfg.BatchSize * d.dims * f
	return covBytes + meanBytes + scratchBytes + bufBytes
}
