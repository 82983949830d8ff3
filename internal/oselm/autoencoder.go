package oselm

import (
	"math"

	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// ScoreMetric selects how an autoencoder turns a reconstruction residual
// into a scalar anomaly score.
type ScoreMetric int

const (
	// MSE is the mean squared reconstruction error, the default.
	MSE ScoreMetric = iota
	// L1Mean is the mean absolute reconstruction error.
	L1Mean
	// L2Norm is the Euclidean norm of the residual.
	L2Norm
)

// String implements fmt.Stringer.
func (s ScoreMetric) String() string {
	switch s {
	case MSE:
		return "mse"
	case L1Mean:
		return "l1"
	case L2Norm:
		return "l2"
	default:
		return "unknown"
	}
}

// Autoencoder wraps an OS-ELM whose targets are its inputs, yielding the
// unsupervised anomaly detector of the paper's §3.1: the reconstruction
// error is the anomaly score, and training on a sample pulls the score
// for similar samples down. Every call borrows its working set from the
// model's scratch list (see Scratches); the In variants run in a slot
// the caller borrowed, which is how model.Multi drives its instances.
type Autoencoder struct {
	model  *Model
	metric ScoreMetric
}

// NewAutoencoder builds an autoencoder with the given input dimension,
// hidden width and general model options taken from cfg (Outputs is
// forced equal to Inputs).
func NewAutoencoder(cfg Config, metric ScoreMetric, r *rng.Rand) (*Autoencoder, error) {
	cfg.Outputs = cfg.Inputs
	m, err := New(cfg, r)
	if err != nil {
		return nil, err
	}
	return &Autoencoder{model: m, metric: metric}, nil
}

// Score returns the reconstruction-error anomaly score of x.
func (a *Autoencoder) Score(x []float64) float64 {
	g, s := a.model.borrow()
	r := a.ScoreIn(s, x)
	a.model.scr.Put(g)
	return r
}

// ScoreIn is Score in the working set s, which it leaves holding x's
// forward pass (for TrainScored) and the score (Scratch.Score).
func (a *Autoencoder) ScoreIn(s *Scratch, x []float64) float64 {
	s.score = a.score(s, x)
	return s.score
}

// score computes ScoreIn's score. The residual is always computed at
// float64: the float32 backend's reconstruction is widened before it
// reaches the metric. The squared metrics take the residual from the
// model's βᵀh pass itself (see Model.predictSqDist).
func (a *Autoencoder) score(s *Scratch, x []float64) float64 {
	ops := a.model.ops
	d := len(x)
	if a.metric == L1Mean {
		a.model.predictIn(s, s.e, x)
		r := mat.L1Dist(x, s.e)
		ops.AddAbs(d)
		ops.AddAdd(d)
		ops.AddDiv(1)
		return r / float64(d)
	}
	r := a.model.predictSqDist(s, x)
	ops.AddMulAdd(d)
	ops.AddAdd(d)
	if a.metric == L2Norm {
		return math.Sqrt(r)
	}
	ops.AddDiv(1) // MSE
	return r / float64(d)
}

// ScoreBatch writes the anomaly score of each xs[i] into dst[i], one
// ScoreIn per sample in one borrowed working set.
func (a *Autoencoder) ScoreBatch(dst []float64, xs [][]float64) {
	if len(dst) != len(xs) {
		panic("oselm: ScoreBatch buffer length mismatch")
	}
	g, s := a.model.borrow()
	for i, x := range xs {
		dst[i] = a.ScoreIn(s, x)
	}
	a.model.scr.Put(g)
}

// Train folds x into the autoencoder (target = input).
func (a *Autoencoder) Train(x []float64) { a.model.Train(x, x) }

// TrainIn is Train in the working set s.
func (a *Autoencoder) TrainIn(s *Scratch, x []float64) { a.model.trainIn(s, x, x) }

// TrainScored folds x into the autoencoder as Train does, starting from
// the forward pass ScoreIn(s, x) left in s: the hidden activations and
// the reconstruction. The caller guarantees that s holds this
// autoencoder's ScoreIn of this same x and that the model has not been
// written since; the update is then bit-identical to Train(x), one
// hidden pass and one βᵀh pass cheaper.
func (a *Autoencoder) TrainScored(s *Scratch, x []float64) { a.model.trainForwarded(s, x) }

// InitTrainBatch batch-initialises the autoencoder on xs.
func (a *Autoencoder) InitTrainBatch(xs [][]float64) error {
	return a.model.InitTrainBatch(xs, xs)
}

// Reset clears learned state, keeping the random projection (see
// Model.Reset).
func (a *Autoencoder) Reset() { a.model.Reset() }

// Model exposes the underlying OS-ELM.
func (a *Autoencoder) Model() *Model { return a.model }

// SetOps attaches an operation counter to the underlying model.
func (a *Autoencoder) SetOps(c *opcount.Counter) { a.model.SetOps(c) }

// SamplesSeen reports sequential samples since creation or Reset.
func (a *Autoencoder) SamplesSeen() int { return a.model.SamplesSeen() }

// Precision returns the compute precision of the underlying model.
func (a *Autoencoder) Precision() Precision { return a.model.cfg.Precision }

// MemoryBytes reports retained state: the model's, whose residual
// buffer holds the reconstruction.
func (a *Autoencoder) MemoryBytes() int { return a.model.MemoryBytes() }
