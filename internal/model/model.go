// Package model implements the paper's discriminative model (§3.1): one
// OS-ELM autoencoder instance per class label. A sample's predicted label
// is the instance that reconstructs it best (argmin anomaly score), and
// sequential training updates exactly one instance — the predicted
// ("closest") one, or an externally chosen one during reconstruction.
package model

import (
	"fmt"
	"math"

	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// Discriminator is the interface the drift detectors program against: a
// label predictor with a per-sample anomaly score and a sequential
// training path.
type Discriminator interface {
	// Predict returns the predicted class of x and the anomaly score of
	// the winning instance (the smaller the more normal).
	Predict(x []float64) (label int, score float64)
	// Train folds x into the instance for the given label.
	Train(x []float64, label int)
	// Classes returns the number of class labels C.
	Classes() int
}

// Config describes a multi-instance model.
type Config struct {
	// Classes is the number of labels C (one autoencoder each).
	Classes int
	// Inputs is the feature dimension D.
	Inputs int
	// Hidden is the autoencoder hidden width.
	Hidden int
	// Metric scores reconstructions; default MSE.
	Metric oselm.ScoreMetric
	// Forgetting is the per-instance forgetting factor (0 → 1.0, plain
	// OS-ELM; <1 gives the ONLAD behaviour).
	Forgetting float64
	// Ridge regularises each instance (0 → 1e-3).
	Ridge float64
	// WeightScale bounds the random projections (0 → 1).
	WeightScale float64
	// Precision selects the numeric backend every instance computes its
	// inference-side state at (default Float64; see oselm.Config).
	Precision oselm.Precision
}

// Multi is the concrete multi-instance autoencoder model.
//
// Multi is not safe for concurrent use by multiple goroutines; callers
// that need throughput parallelise across streams (see internal/fleet),
// not within one Predict.
type Multi struct {
	cfg       Config
	instances []*oselm.Autoencoder
	scores    []float64
	ops       *opcount.Counter
}

var _ Discriminator = (*Multi)(nil)

// New builds the model, drawing each instance's random projection from an
// independent sub-stream of r so instance count changes do not perturb
// other consumers.
func New(cfg Config, r *rng.Rand) (*Multi, error) {
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("model: need at least one class, got %d", cfg.Classes)
	}
	m := &Multi{
		cfg:       cfg,
		instances: make([]*oselm.Autoencoder, cfg.Classes),
		scores:    make([]float64, cfg.Classes),
	}
	for i := range m.instances {
		ae, err := oselm.NewAutoencoder(oselm.Config{
			Inputs:      cfg.Inputs,
			Hidden:      cfg.Hidden,
			Forgetting:  cfg.Forgetting,
			Ridge:       cfg.Ridge,
			WeightScale: cfg.WeightScale,
			Precision:   cfg.Precision,
		}, cfg.Metric, r.Split())
		if err != nil {
			return nil, fmt.Errorf("model: instance %d: %w", i, err)
		}
		m.instances[i] = ae
	}
	return m, nil
}

// Classes returns C.
func (m *Multi) Classes() int { return m.cfg.Classes }

// Config returns the construction config.
func (m *Multi) Config() Config { return m.cfg }

// Predict scores x under every instance and returns the argmin label with
// its score (Algorithm 1 lines 6–7). The instances score in order and
// the first lowest score wins.
func (m *Multi) Predict(x []float64) (int, float64) {
	for i, ae := range m.instances {
		m.scores[i] = ae.Score(x)
	}
	best, bestScore := 0, m.scores[0]
	for i, s := range m.scores {
		if s < bestScore {
			best, bestScore = i, s
		}
	}
	m.ops.AddCmp(len(m.instances) - 1)
	return best, bestScore
}

// Scores returns the per-instance anomaly scores computed by the most
// recent Predict (a view; valid until the next Predict).
func (m *Multi) Scores() []float64 { return m.scores }

// PredictBatch predicts every sample of xs, writing the argmin label and
// its score into labels[i] and scores[i] (both len(xs)), one Predict
// call per sample.
func (m *Multi) PredictBatch(labels []int, scores []float64, xs [][]float64) {
	if len(labels) != len(xs) || len(scores) != len(xs) {
		panic("model: PredictBatch buffer length mismatch")
	}
	for i, x := range xs {
		labels[i], scores[i] = m.Predict(x)
	}
}

// Train folds x into the instance for label.
func (m *Multi) Train(x []float64, label int) {
	m.instances[label].Train(x)
}

// TrainClosest predicts x and trains the winning instance, the paper's
// default sequential-learning behaviour; it returns the predicted label
// and score.
func (m *Multi) TrainClosest(x []float64) (int, float64) {
	return m.predictTrain(x, false)
}

// PredictTrain is Algorithm 2's retraining with label prediction:
// it predicts x and trains the winning instance on it, but only when
// the winning score is finite, so a diverged model never learns from
// its own prediction. It returns the predicted label and score.
func (m *Multi) PredictTrain(x []float64) (int, float64) {
	return m.predictTrain(x, true)
}

// predictTrain predicts x, then trains the winner from the forward
// pass its Score just ran (Autoencoder.TrainScored), unless finiteOnly
// is set and the score is NaN or ±Inf. Each instance keeps its own
// scratch and nothing runs between the two calls, so the winner's
// scratch still holds x's pass.
func (m *Multi) predictTrain(x []float64, finiteOnly bool) (int, float64) {
	label, score := m.Predict(x)
	if finiteOnly && (math.IsNaN(score) || math.IsInf(score, 0)) {
		return label, score
	}
	m.instances[label].TrainScored(x)
	return label, score
}

// InitSequential trains instance labels[i] on xs[i] in order, the fully
// sequential initial-training path that also runs on the microcontroller.
func (m *Multi) InitSequential(xs [][]float64, labels []int) error {
	if len(xs) != len(labels) {
		return fmt.Errorf("model: %d samples vs %d labels", len(xs), len(labels))
	}
	for i, x := range xs {
		l := labels[i]
		if l < 0 || l >= m.cfg.Classes {
			return fmt.Errorf("model: label %d out of range [0,%d)", l, m.cfg.Classes)
		}
		m.instances[l].Train(x)
	}
	return nil
}

// InitBatch batch-initialises each instance on its class's samples, the
// host-side (Raspberry Pi 4) initial training path.
func (m *Multi) InitBatch(xs [][]float64, labels []int) error {
	if len(xs) != len(labels) {
		return fmt.Errorf("model: %d samples vs %d labels", len(xs), len(labels))
	}
	byClass := make([][][]float64, m.cfg.Classes)
	for i, x := range xs {
		l := labels[i]
		if l < 0 || l >= m.cfg.Classes {
			return fmt.Errorf("model: label %d out of range [0,%d)", l, m.cfg.Classes)
		}
		byClass[l] = append(byClass[l], x)
	}
	for c, group := range byClass {
		if len(group) == 0 {
			continue // an instance may start untrained
		}
		if err := m.instances[c].InitTrainBatch(group); err != nil {
			return fmt.Errorf("model: class %d: %w", c, err)
		}
	}
	return nil
}

// Reset clears every instance's learned state (random projections are
// kept), used by drift-triggered model reconstruction.
func (m *Multi) Reset() {
	for _, ae := range m.instances {
		ae.Reset()
	}
}

// Instance exposes a single autoencoder, mainly for tests and
// serialisation.
func (m *Multi) Instance(i int) *oselm.Autoencoder { return m.instances[i] }

// SetOps attaches an operation counter to the model and all instances.
func (m *Multi) SetOps(c *opcount.Counter) {
	m.ops = c
	for _, ae := range m.instances {
		ae.SetOps(c)
	}
}

// Health aggregates the per-instance RLS watchdog views: the worst
// (largest, NaN-propagating) P trace, finiteness across every instance,
// and the summed watchdog reset count.
func (m *Multi) Health() oselm.Health {
	agg := oselm.Health{PFinite: true, BetaFinite: true}
	for _, ae := range m.instances {
		h := ae.Model().HealthNow()
		agg.PTrace = math.Max(agg.PTrace, h.PTrace)
		agg.PFinite = agg.PFinite && h.PFinite
		agg.BetaFinite = agg.BetaFinite && h.BetaFinite
		agg.WatchdogResets += h.WatchdogResets
	}
	return agg
}

// Precision returns the numeric backend the instances compute at.
func (m *Multi) Precision() oselm.Precision { return m.cfg.Precision }

// MemoryBytes reports the retained bytes across all instances plus the
// score buffer. The score buffer holds one scalar per class at the backend's element width (the
// float64 slice here is its widened image on reduced-precision
// backends).
func (m *Multi) MemoryBytes() int {
	total := m.cfg.Precision.Bytes() * len(m.scores)
	for _, ae := range m.instances {
		total += ae.MemoryBytes()
	}
	return total
}
