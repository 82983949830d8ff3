package fixed

import (
	"fmt"

	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
)

// Autoencoder is an inference-only Q16.16 quantisation of a trained
// oselm.Autoencoder: fixed W, b, β; no P matrix (training stays on the
// float path / the host). The hot loops are the shared integer kernels
// of internal/mat instantiated at Q.
type Autoencoder struct {
	inputs, hidden int
	// w is row-major Hidden×Inputs, beta row-major Hidden×Inputs
	// (autoencoder: outputs = inputs).
	w    []Q
	bias []Q
	beta []Q

	h     []Q
	recon []Q
	sat   int // parameters clipped during quantisation
	ops   *opcount.Counter
}

// QuantizeAutoencoder converts a trained float autoencoder for
// fixed-point inference. Weight magnitudes must fit Q16.16 (they do for
// standardised features and the paper's configurations; saturation
// applies otherwise and is counted — see Saturations).
func QuantizeAutoencoder(src *oselm.Autoencoder) *Autoencoder {
	m := src.Model()
	cfg := m.Config()
	a := &Autoencoder{
		inputs: cfg.Inputs,
		hidden: cfg.Hidden,
		h:      make([]Q, cfg.Hidden),
		recon:  make([]Q, cfg.Inputs),
	}
	wf, bf, betaf := m.Weights()
	var s1, s2, s3 int
	a.w, s1 = QuantizeVecChecked(wf)
	a.bias, s2 = QuantizeVecChecked(bf)
	a.beta, s3 = QuantizeVecChecked(betaf)
	a.sat = s1 + s2 + s3
	return a
}

// Inputs returns the feature dimension.
func (a *Autoencoder) Inputs() int { return a.inputs }

// Saturations reports how many parameters clipped to the Q16.16 range
// while the autoencoder was quantised. Non-zero means the float model's
// weights exceeded ±32768 and the quantised scores are suspect.
func (a *Autoencoder) Saturations() int { return a.sat }

// SetOps attaches an operation counter (integer MACs are counted in the
// MulAdd class; the device profile decides what they cost).
func (a *Autoencoder) SetOps(c *opcount.Counter) { a.ops = c }

// Score computes the mean-absolute reconstruction error of x — the L1
// metric, chosen because it needs no fixed-point squaring (whose range
// demands would halve the usable precision).
func (a *Autoencoder) Score(x []Q) Q {
	if len(x) != a.inputs {
		panic(fmt.Sprintf("fixed: input dimension %d, want %d", len(x), a.inputs))
	}
	// Hidden layer matvec: h = W·x.
	mat.MulVecQ16(a.h, a.w, x)
	for i, v := range a.h {
		a.h[i] = Sigmoid(Add(v, a.bias[i]))
	}
	a.ops.AddMulAdd(a.hidden * a.inputs)
	a.ops.AddAdd(a.hidden)
	a.ops.AddExp(a.hidden) // table lookups; profiles may cost them as cheap
	// Output layer: recon = βᵀ·h.
	mat.MulVecTransQ16(a.recon, a.beta, a.h)
	a.ops.AddMulAdd(a.hidden * a.inputs)
	// Mean absolute error.
	total := L1DistAcc(a.recon, x)
	a.ops.AddAbs(a.inputs)
	a.ops.AddAdd(a.inputs)
	a.ops.AddDiv(1)
	return Div(total, FromFloat(float64(a.inputs)))
}
