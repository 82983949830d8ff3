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
//
// A Multi holds only its instances' state. Each call borrows one set
// from scr — a slot per instance, each with its score — and gives it
// back before it returns; the list is bound over the instances
// (oselm.Model.UseScratch), so a direct call on one instance borrows
// from it too. Clone shares it and so does ShareScratch, marking it
// scrShared: MemoryBytes then leaves it out and EachShared names it.
type Multi struct {
	cfg       Config
	instances []*oselm.Autoencoder
	scr       *oselm.Scratches
	scrShared bool
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
	m.bindScratch(nil)
	return m, nil
}

// bindScratch makes l, a list of one slot per instance (a new one for a
// nil l), m's scratch list and binds instance i to slot i of it.
func (m *Multi) bindScratch(l *oselm.Scratches) {
	if l == nil {
		l = oselm.NewScratches(m.instances[0].Model().Config(), len(m.instances))
	}
	m.scr = l
	for i, ae := range m.instances {
		ae.Model().UseScratch(l, i)
	}
}

// ShareScratch rebinds m's scratch list to peer's when peer's serves
// m's instances, and reports whether it did: registration gives the
// members of one projection one list, as it gives them one projection.
// It marks both models' list shared (see Clone), so it is a use of
// peer under peer's one-goroutine contract.
func (m *Multi) ShareScratch(peer *Multi) bool {
	if !peer.scr.Fits(m.instances[0].Model().Config(), len(m.instances)) {
		return false
	}
	m.bindScratch(peer.scr)
	m.scrShared, peer.scrShared = true, true
	return true
}

// Classes returns C.
func (m *Multi) Classes() int { return m.cfg.Classes }

// Config returns the construction config.
func (m *Multi) Config() Config { return m.cfg }

// Predict scores x under every instance and returns the argmin label with
// its score (Algorithm 1 lines 6–7). The instances score in order and
// the first lowest score wins.
func (m *Multi) Predict(x []float64) (int, float64) {
	g := m.scr.Get()
	label, score := m.predictIn(g, x)
	m.scr.Put(g)
	return label, score
}

// predictIn is Predict in the borrowed set g, whose slot i it leaves
// holding instance i's forward pass of x.
func (m *Multi) predictIn(g *oselm.ScratchSet, x []float64) (int, float64) {
	for i, ae := range m.instances {
		ae.ScoreIn(g.Slot(i), x)
	}
	best, bestScore := 0, g.Slot(0).Score()
	for i := range m.instances {
		if s := g.Slot(i).Score(); s < bestScore {
			best, bestScore = i, s
		}
	}
	m.ops.AddCmp(len(m.instances) - 1)
	return best, bestScore
}

// PredictBatch predicts every sample of xs, writing the argmin label and
// its score into labels[i] and scores[i] (both len(xs)), one predictIn
// per sample in one borrowed set.
func (m *Multi) PredictBatch(labels []int, scores []float64, xs [][]float64) {
	if len(labels) != len(xs) || len(scores) != len(xs) {
		panic("model: PredictBatch buffer length mismatch")
	}
	g := m.scr.Get()
	for i, x := range xs {
		labels[i], scores[i] = m.predictIn(g, x)
	}
	m.scr.Put(g)
}

// Train folds x into the instance for label.
func (m *Multi) Train(x []float64, label int) {
	g := m.scr.Get()
	m.instances[label].TrainIn(g.Slot(label), x)
	m.scr.Put(g)
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
// pass its ScoreIn left in the winner's slot (Autoencoder.TrainScored),
// unless finiteOnly is set and the score is NaN or ±Inf. The set is
// held across both, so the slot still holds x's pass.
func (m *Multi) predictTrain(x []float64, finiteOnly bool) (int, float64) {
	g := m.scr.Get()
	label, score := m.predictIn(g, x)
	if !finiteOnly || !(math.IsNaN(score) || math.IsInf(score, 0)) {
		m.instances[label].TrainScored(g.Slot(label), x)
	}
	m.scr.Put(g)
	return label, score
}

// InitSequential trains instance labels[i] on xs[i] in order, the fully
// sequential initial-training path that also runs on the microcontroller.
func (m *Multi) InitSequential(xs [][]float64, labels []int) error {
	if len(xs) != len(labels) {
		return fmt.Errorf("model: %d samples vs %d labels", len(xs), len(labels))
	}
	g := m.scr.Get()
	defer m.scr.Put(g)
	for i, x := range xs {
		l := labels[i]
		if l < 0 || l >= m.cfg.Classes {
			return fmt.Errorf("model: label %d out of range [0,%d)", l, m.cfg.Classes)
		}
		m.instances[l].TrainIn(g.Slot(l), x)
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

// Clone returns a model that continues m's stream, each instance a
// copy-on-write clone of m's (see oselm.Model.Clone): the projections
// are shared for life, β and P until the first write to them, and the
// scratch list for life. No operation counter is attached.
func (m *Multi) Clone() *Multi {
	nm := &Multi{
		cfg:       m.cfg,
		instances: make([]*oselm.Autoencoder, len(m.instances)),
		scr:       m.scr,
		scrShared: true,
	}
	m.scrShared = true
	for i, ae := range m.instances {
		nm.instances[i] = ae.Clone()
	}
	return nm
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

// MemoryBytes reports the retained bytes across all instances plus,
// unless it is shared, the scratch list: every set it holds (at least
// one; see oselm.Scratches.Sets), each an instance working set and a
// score per instance. A score is counted at the backend's element width
// (the float64 in the slot is its widened image on reduced-precision
// backends).
func (m *Multi) MemoryBytes() int {
	total := 0
	if !m.scrShared {
		total = m.scratchBytes()
	}
	for _, ae := range m.instances {
		total += ae.MemoryBytes()
	}
	return total
}

// scratchBytes is the size of every set of m's scratch list.
func (m *Multi) scratchBytes() int {
	c := m.instances[0].Model().Config()
	return m.scr.Sets() * len(m.instances) * (oselm.ScratchBytes(c) + m.cfg.Precision.Bytes())
}

// EachShared calls fn once for every group of slabs m holds in common
// with other models and leaves out of its own MemoryBytes: its scratch
// list once shared, and each instance's shared slabs (see
// oselm.Model.EachShared). key is the same for every holder of a group.
func (m *Multi) EachShared(fn func(key any, bytes int)) {
	if m.scrShared {
		fn(m.scr, m.scratchBytes())
	}
	for _, ae := range m.instances {
		ae.Model().EachShared(fn)
	}
}
