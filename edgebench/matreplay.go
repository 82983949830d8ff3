package main

import (
	"math"

	"edgedrift/internal/mat"
	"edgedrift/internal/oselm"
)

// matReplay re-issues the mat kernels an OS-ELM autoencoder instance
// calls, on that instance's own weight matrices: the forward pass of
// Score and ScoreBatch and the rank-1 RLS update of Train. Kernel cost
// does not depend on the values, so the replay times the same work as
// the instance. The sigmoid activation between the two products is
// oselm's loop, replayed here because the mat forward kernels cannot be
// timed apart from it. The scratch, and the RLS state P the train
// replay evolves, belong to the replay; one replay serves any number of
// instances of one shape.
type matReplay struct {
	hidden, features int
	ridge            float64
	p                *mat.Matrix
	h, ph, e, out    []float64
	hb, ob           []float64 // batch scratch, up to 64 rows
}

func newMatReplay(cfg oselm.Config) *matReplay {
	hd, d := cfg.Hidden, cfg.Inputs
	r := &matReplay{
		hidden: hd, features: d, ridge: cfg.Ridge,
		p:   mat.New(hd, hd),
		h:   make([]float64, hd),
		ph:  make([]float64, hd),
		e:   make([]float64, d),
		out: make([]float64, d),
		hb:  make([]float64, 64*hd),
		ob:  make([]float64, 64*d),
	}
	r.reset()
	return r
}

// reset restarts the train replay's RLS state at P₀ = I/λ, as
// oselm.Model.Reset does.
func (r *matReplay) reset() {
	r.p.Zero()
	r.p.AddDiag(1 / r.ridge)
}

// weights views an f64 instance's W and β as matrices.
func (r *matReplay) weights(m *oselm.Model) (w, beta mat.Matrix, bias []float64) {
	wd, bias, bd := m.Weights()
	return mat.Matrix{Rows: r.hidden, Cols: r.features, Data: wd}, mat.Matrix{Rows: r.hidden, Cols: r.features, Data: bd}, bias
}

func activate(h, bias []float64) {
	for i := range h {
		h[i] = 1 / (1 + math.Exp(-(h[i] + bias[i])))
	}
}

// score replays Score's forward pass: H×D matvec, activation, βᵀh.
func (r *matReplay) score(m *oselm.Model, x []float64) {
	w, beta, bias := r.weights(m)
	mat.MulVec(r.h, &w, x)
	activate(r.h, bias)
	mat.MulVecTrans(r.out, &beta, r.h)
}

// train replays Train: the forward matvec and activation, then the RLS
// step (P·h, hᵀP·h, the P downdate, βᵀh, P·h again, the β update).
func (r *matReplay) train(m *oselm.Model, x []float64) {
	w, beta, bias := r.weights(m)
	mat.MulVec(r.h, &w, x)
	activate(r.h, bias)
	mat.MulVec(r.ph, r.p, r.h)
	denom := 1 + mat.Dot(r.h, r.ph)
	r.p.AddScaledOuter(-1/denom, r.ph, r.ph)
	mat.MulVecTrans(r.e, &beta, r.h)
	for i := range r.e {
		r.e[i] = x[i] - r.e[i]
	}
	mat.MulVec(r.ph, r.p, r.h)
	beta.AddScaledOuter(1, r.ph, r.e)
}

// scoreBatch replays ScoreBatch's forward pass for up to 64 samples:
// MulBatchRows, activation per row, MulBatchTrans.
func (r *matReplay) scoreBatch(m *oselm.Model, xs [][]float64) {
	w, beta, bias := r.weights(m)
	n := len(xs)
	hb := mat.Matrix{Rows: n, Cols: r.hidden, Data: r.hb[:n*r.hidden]}
	ob := mat.Matrix{Rows: n, Cols: r.features, Data: r.ob[:n*r.features]}
	mat.MulBatchRows(&hb, xs, &w)
	for i := 0; i < n; i++ {
		activate(hb.Row(i), bias)
	}
	mat.MulBatchTrans(&ob, &hb, &beta)
}
