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
// for similar samples down.
type Autoencoder struct {
	model  *Model
	metric ScoreMetric
	recon  []float64
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
	return &Autoencoder{model: m, metric: metric, recon: make([]float64, cfg.Inputs)}, nil
}

// Score returns the reconstruction-error anomaly score of x. The
// residual is always computed at float64: Predict widens the float32
// backend's reconstruction before it reaches the metric. The squared
// metrics take the residual from the model's βᵀh pass itself (see
// Model.predictSqDist).
func (a *Autoencoder) Score(x []float64) float64 {
	ops := a.model.ops
	d := len(x)
	if a.metric == L1Mean {
		s := mat.L1Dist(x, a.model.Predict(a.recon, x))
		ops.AddAbs(d)
		ops.AddAdd(d)
		ops.AddDiv(1)
		return s / float64(d)
	}
	s := a.model.predictSqDist(a.recon, x)
	ops.AddMulAdd(d)
	ops.AddAdd(d)
	if a.metric == L2Norm {
		return math.Sqrt(s)
	}
	ops.AddDiv(1) // MSE
	return s / float64(d)
}

// ScoreBatch writes the anomaly score of each xs[i] into dst[i], one
// Score call per sample.
func (a *Autoencoder) ScoreBatch(dst []float64, xs [][]float64) {
	if len(dst) != len(xs) {
		panic("oselm: ScoreBatch buffer length mismatch")
	}
	for i, x := range xs {
		dst[i] = a.Score(x)
	}
}

// Train folds x into the autoencoder (target = input).
func (a *Autoencoder) Train(x []float64) { a.model.Train(x, x) }

// TrainScored folds x into the autoencoder as Train does, starting from
// the forward pass the immediately preceding Score(x) left behind: the
// hidden activations and the reconstruction. The caller guarantees that
// Score with this same x was the autoencoder's last call; the update is
// then bit-identical to Train(x), one hidden pass and one βᵀh pass
// cheaper.
func (a *Autoencoder) TrainScored(x []float64) { a.model.trainForwarded(x, a.recon) }

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

// MemoryBytes reports retained state including the reconstruction
// buffer, which is counted at the backend's element width: on the
// float32 backend the model already retains the width-matched
// reconstruction (its o32 staging buffer), so the float64 recon here is
// the widened image of state counted once.
func (a *Autoencoder) MemoryBytes() int {
	return a.model.MemoryBytes() + a.model.cfg.Precision.Bytes()*len(a.recon)
}
