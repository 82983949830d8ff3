// Package oselm implements the Online Sequential Extreme Learning Machine
// (Liang et al. 2006) and its forgetting-factor variant used by ONLAD
// (Tsukada et al. 2020) — the discriminative substrate of the paper.
//
// An OS-ELM is a single-hidden-layer network y = β·g(W·x + b) whose input
// weights W and biases b are random and fixed; only the output weights β
// are learned, by recursive least squares. With the training chunk size
// fixed to one — the configuration the paper uses so "pseudo inverse
// operation of matrixes can be eliminated" — the update is a rank-1
// Sherman-Morrison recursion over the H×H matrix P:
//
//	P ← P − P·h·hᵀ·P / (1 + hᵀ·P·h)
//	β ← β + P·h·(tᵀ − hᵀ·β)
//
// With a forgetting factor α ∈ (0,1] (ONLAD), older samples decay:
//
//	P ← (1/α)·(P − P·h·hᵀ·P / (α + hᵀ·P·h))
//
// Memory per model is H² + H·M + H·D + H floats — independent of how many
// samples have been seen, which is what fits in a 264 kB microcontroller.
package oselm

import (
	"errors"
	"fmt"
	"math"

	"edgedrift/internal/mat"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Sigmoid is g(z) = 1/(1+e^(−z)), the paper's default.
	Sigmoid Activation = iota
	// Tanh is g(z) = tanh(z).
	Tanh
	// Linear is g(z) = z (useful for testing the RLS algebra exactly).
	Linear
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Config describes an OS-ELM instance.
type Config struct {
	// Inputs is the input dimension D (required).
	Inputs int
	// Hidden is the hidden-layer width H (required).
	Hidden int
	// Outputs is the output dimension M (required; equals Inputs for the
	// autoencoder use).
	Outputs int
	// Activation selects the hidden nonlinearity; default Sigmoid.
	Activation Activation
	// Forgetting is the ONLAD forgetting factor α. Zero means 1 (no
	// forgetting, plain OS-ELM). Must lie in (0, 1].
	Forgetting float64
	// Ridge is the regularisation λ used for P's initialisation
	// (P₀ = (1/λ)·I when training starts purely sequentially, or
	// (HᵀH + λI)⁻¹ for batch initialisation). Zero means 1e-3.
	Ridge float64
	// WeightScale bounds the uniform draw for W and b, [−s, s]. Zero
	// means 1.
	WeightScale float64
	// Precision selects the numeric backend for the inference-side state
	// (W, b, β and the activation buffers). Float64 — the zero value — is
	// the historical full-precision path; Float32 halves the inference
	// footprint while the RLS recursion keeps P and its scratch at
	// float64 for conditioning, crossing the precision boundary once per
	// sample. Fixed16 is inference-only and rejected here: train at a
	// float precision and quantise via internal/fixed.
	Precision Precision
}

func (c Config) withDefaults() (Config, error) {
	if c.Inputs <= 0 || c.Hidden <= 0 || c.Outputs <= 0 {
		return c, fmt.Errorf("oselm: dimensions must be positive, got D=%d H=%d M=%d", c.Inputs, c.Hidden, c.Outputs)
	}
	if c.Forgetting == 0 {
		c.Forgetting = 1
	}
	if c.Forgetting <= 0 || c.Forgetting > 1 {
		return c, fmt.Errorf("oselm: forgetting factor %v out of (0,1]", c.Forgetting)
	}
	if c.Ridge == 0 {
		c.Ridge = 1e-3
	}
	if c.Ridge < 0 {
		return c, errors.New("oselm: negative ridge")
	}
	if c.WeightScale == 0 {
		c.WeightScale = 1
	}
	switch c.Precision {
	case Float64, Float32:
	case Fixed16:
		return c, errors.New("oselm: Fixed16 is inference-only; train at f64 or f32 and quantise via internal/fixed")
	default:
		return c, fmt.Errorf("oselm: unknown precision %v", c.Precision)
	}
	return c, nil
}

// Model is an OS-ELM instance. It is not safe for concurrent use.
type Model struct {
	cfg Config

	w    *mat.Matrix // Hidden×Inputs random input weights (Float64 backend)
	bias []float64   // Hidden biases (Float64 backend)
	beta *mat.Matrix // Hidden×Outputs learned output weights (Float64 backend)
	p    *mat.Matrix // Hidden×Hidden inverse-covariance state (always float64)
	// wShared marks w and bias as a read-only projection other models
	// hold too (see ShareProjection); MemoryBytes leaves it to its owner.
	wShared bool
	// fprint caches Fingerprint once computed (fprintOK): everything it
	// hashes is fixed for the model's life, barring an AdoptState that
	// rebinds the projection.
	fprint   uint64
	fprintOK bool

	// Float32 backend state. When cfg.Precision == Float32 the model owns
	// its inference-side parameters at float32 and the float64 twins above
	// (w, bias, beta) are nil; P and the RLS scratch stay float64 so the
	// Sherman-Morrison recursion keeps its conditioning. The staging
	// buffers carry values across the precision boundary each sample
	// without allocating.
	w32    *mat.MatrixOf[float32] // Hidden×Inputs random input weights
	bias32 []float32              // Hidden biases
	beta32 *mat.MatrixOf[float32] // Hidden×Outputs learned output weights
	h32    []float32              // hidden activations
	x32    []float32              // input narrowed to float32
	o32    []float32              // forward output βᵀ·h
	u32    []float32              // RLS gain P·h narrowed to float32
	e32    []float32              // residual narrowed to float32

	// scratch buffers reused across calls
	h     []float64 // hidden activations (float64 image on the f32 path)
	ph    []float64 // P·h
	e     []float64 // residual tᵀ − hᵀβ
	ops   *opcount.Counter
	inits int // samples consumed since last Reset (sequential-only training)

	// RLS health watchdog state; see watchdog().
	wdPeriod   int     // trains between watchdog passes
	wdCount    int     // trains since the last pass
	wdResets   uint64  // divergence repairs since creation
	traceLimit float64 // tr(P) above this counts as divergence
}

// Watchdog defaults. The period keeps the O(H²) P scan amortised to a
// fraction of one Train (which is itself O(H²)); the trace limit is a
// large multiple of tr(P₀) = H/λ — RLS shrinks P as evidence
// accumulates, so sustained growth past that is divergence, not data.
const (
	defaultWatchdogPeriod     = 64
	defaultTraceLimitFactor   = 1e6
	watchdogTraceLimitMinimum = 1e12
	// watchdogAsymmetryTol is the relative symmetry-loss threshold above
	// which the watchdog re-symmetrises P. Independent rounding of the
	// (i,j)/(j,i) rank-1 updates sits many orders of magnitude below it.
	watchdogAsymmetryTol = 1e-8
)

// New creates a model with random input weights drawn from r and the
// purely sequential initialisation P = (1/λ)·I, β = 0. This is the
// configuration deployable on a microcontroller: no batch pseudo-inverse
// ever happens.
func New(cfg Config, r *rng.Rand) (*Model, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := alloc(c)
	if m.w32 != nil {
		// Draw the projection at float64 from the same RNG stream as the
		// full-precision backend and narrow, so an f32 model with a given
		// seed is the rounded image of the f64 model with that seed —
		// which is what makes cross-precision parity tests meaningful.
		wd := make([]float64, len(m.w32.Data))
		bd := make([]float64, len(m.bias32))
		r.FillUniform(wd, -c.WeightScale, c.WeightScale)
		r.FillUniform(bd, -c.WeightScale, c.WeightScale)
		mat.ConvertVec(m.w32.Data, wd)
		mat.ConvertVec(m.bias32, bd)
	} else {
		r.FillUniform(m.w.Data, -c.WeightScale, c.WeightScale)
		r.FillUniform(m.bias, -c.WeightScale, c.WeightScale)
	}
	m.resetState()
	return m, nil
}

// alloc builds a model with the backend state the configuration's
// precision selects, leaving weights zero.
func alloc(c Config) *Model {
	var w, bias, beta []float64
	if c.Precision != Float32 {
		w = make([]float64, c.Hidden*c.Inputs)
		bias = make([]float64, c.Hidden)
		beta = make([]float64, c.Hidden*c.Outputs)
	}
	return build(c, w, bias, beta, make([]float64, c.Hidden*c.Hidden))
}

// build assembles a model around the given slabs: P (Hidden×Hidden)
// for every backend, and W, b and β for the Float64 backend, whose
// slabs are used as is. The float32 backend allocates its own narrowed
// state and ignores w, bias and beta. The RLS scratch and the float64
// activation image are allocated for every backend.
func build(c Config, w, bias, beta, p []float64) *Model {
	m := &Model{
		cfg: c,
		p:   &mat.Matrix{Rows: c.Hidden, Cols: c.Hidden, Data: p},
		h:   make([]float64, c.Hidden),
		ph:  make([]float64, c.Hidden),
		e:   make([]float64, c.Outputs),
	}
	if c.Precision == Float32 {
		m.w32 = mat.NewOf[float32](c.Hidden, c.Inputs)
		m.bias32 = make([]float32, c.Hidden)
		m.beta32 = mat.NewOf[float32](c.Hidden, c.Outputs)
		m.h32 = make([]float32, c.Hidden)
		m.x32 = make([]float32, c.Inputs)
		m.o32 = make([]float32, c.Outputs)
		m.u32 = make([]float32, c.Hidden)
		m.e32 = make([]float32, c.Outputs)
	} else {
		m.w = &mat.Matrix{Rows: c.Hidden, Cols: c.Inputs, Data: w}
		m.bias = bias
		m.beta = &mat.Matrix{Rows: c.Hidden, Cols: c.Outputs, Data: beta}
	}
	m.initWatchdog()
	return m
}

// initWatchdog sets the watchdog defaults from the configuration.
//
// The periodic watchdog defaults on only at Forgetting == 1 — the
// paper's deployed configuration. There tr(P) starts at H/λ and is
// non-increasing (each rank-1 update subtracts a PSD term), so trace
// growth or symmetry loss can only mean numerical divergence. With
// forgetting < 1, unbounded P growth — and eventual divergence — is the
// variant's documented pathology, the behaviour the paper's comparison
// tables record; silently repairing it would misrepresent that
// baseline, so the periodic watchdog stays off unless a caller opts in
// via SetWatchdogPeriod, which re-arms the per-sample denominator guard
// in Train along with the periodic scan.
func (m *Model) initWatchdog() {
	if m.cfg.Forgetting < 1 {
		m.wdPeriod = 0
		m.traceLimit = math.Inf(1)
		return
	}
	m.wdPeriod = defaultWatchdogPeriod
	m.traceLimit = defaultTraceLimitFactor * float64(m.cfg.Hidden) / m.cfg.Ridge
	if m.traceLimit < watchdogTraceLimitMinimum {
		m.traceLimit = watchdogTraceLimitMinimum
	}
}

// resetState restores the sequential-learning start state, keeping the
// random projection.
func (m *Model) resetState() {
	m.zeroBeta()
	m.p.Zero()
	m.p.AddDiag(1 / m.cfg.Ridge)
	m.inits = 0
	m.wdCount = 0
}

// Reset clears everything learned (β and P) while keeping the fixed
// random input weights, which is how the proposed method reconstructs a
// model after a drift: the projection stays, the least-squares state
// restarts.
func (m *Model) Reset() { m.resetState() }

// zeroBeta clears the learned output weights on whichever backend owns
// them.
func (m *Model) zeroBeta() {
	if m.beta32 != nil {
		m.beta32.Zero()
		return
	}
	m.beta.Zero()
}

// betaFinite reports whether every learned output weight is finite.
func (m *Model) betaFinite() bool {
	if m.beta32 != nil {
		return mat.AllFinite(m.beta32.Data)
	}
	return mat.AllFinite(m.beta.Data)
}

// Config returns the (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// Precision returns the compute precision of the inference-side state.
func (m *Model) Precision() Precision { return m.cfg.Precision }

// SamplesSeen returns the number of sequential training samples folded in
// since creation or the last Reset.
func (m *Model) SamplesSeen() int { return m.inits }

// SetOps attaches an operation counter (nil detaches).
func (m *Model) SetOps(c *opcount.Counter) { m.ops = c }

// hiddenKernel computes the hidden activation vector g(W·x + b) into
// dst at the element type E — the one forward kernel every float
// backend instantiates. At E = float64 the conversions are identity
// operations, so the float64 path is bit-for-bit the historical one.
func hiddenKernel[E mat.Element](dst []E, w *mat.MatrixOf[E], bias, x []E, act Activation) {
	mat.MulVec(dst, w, x)
	activateKernel(dst, bias, act)
}

// activateKernel applies g(z + b) in place — factored out of
// hiddenKernel so the float32 SIMD path runs the exact same element-wise
// arithmetic as the generic kernel: bias add and activation at E,
// transcendental evaluated at float64 and narrowed, identically in every
// entry point. The sigmoid is mat.SigmoidBias, whose vector kernel
// returns the same bits as its Go loop.
func activateKernel[E mat.Element](dst, bias []E, act Activation) {
	if act == Sigmoid {
		mat.SigmoidBias(dst, bias)
		return
	}
	for i := range dst {
		z := dst[i] + bias[i]
		switch act {
		case Tanh:
			dst[i] = E(math.Tanh(float64(z)))
		case Linear:
			dst[i] = z
		}
	}
}

// opsHidden charges the operation counter for one hidden-layer pass;
// the count is precision-independent.
func (m *Model) opsHidden() {
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Inputs)
	m.ops.AddAdd(m.cfg.Hidden)
	if m.cfg.Activation != Linear {
		m.ops.AddExp(m.cfg.Hidden)
		m.ops.AddDiv(m.cfg.Hidden)
	}
}

// hiddenInto computes the hidden activation vector for x into dst
// (Float64 backend).
func (m *Model) hiddenInto(dst, x []float64) {
	if len(x) != m.cfg.Inputs {
		panic(fmt.Sprintf("oselm: input dimension %d, want %d", len(x), m.cfg.Inputs))
	}
	hiddenKernel(dst, m.w, m.bias, x, m.cfg.Activation)
	m.opsHidden()
}

// hidden32 narrows x into the staging buffer and computes the hidden
// activations into h32 (Float32 backend).
func (m *Model) hidden32(x []float64) {
	if len(x) != m.cfg.Inputs {
		panic(fmt.Sprintf("oselm: input dimension %d, want %d", len(x), m.cfg.Inputs))
	}
	mat.ConvertVec(m.x32, x)
	// The concrete float32 matvec dispatches to the SIMD kernels when the
	// CPU has them (see mat/f32.go).
	mat.MulVecF32(m.h32, m.w32, m.x32)
	activateKernel(m.h32, m.bias32, m.cfg.Activation)
	m.opsHidden()
}

// Predict writes the network output for x into dst (len Outputs) and
// returns dst. If dst is nil a new slice is allocated.
func (m *Model) Predict(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.cfg.Outputs)
	}
	if len(dst) != m.cfg.Outputs {
		panic("oselm: bad output buffer length")
	}
	if m.w32 != nil {
		m.hidden32(x)
		mat.MulVecTransF32(m.o32, m.beta32, m.h32)
		m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
		mat.ConvertVec(dst, m.o32)
		return dst
	}
	m.hiddenInto(m.h, x)
	mat.MulVecTrans(dst, m.beta, m.h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	return dst
}

// predictSqDist writes the network output for x into dst as Predict
// does and returns SqDist(x, dst), the squared reconstruction residual
// of an autoencoder (Outputs == Inputs), with the same bits. Both
// backends add it up inside the βᵀh pass.
func (m *Model) predictSqDist(dst, x []float64) float64 {
	if len(dst) != m.cfg.Outputs {
		panic("oselm: bad output buffer length")
	}
	var s float64
	if m.w32 != nil {
		m.hidden32(x)
		s = mat.MulVecTransSqDistF32(dst, m.o32, m.beta32, m.h32, x)
	} else {
		m.hiddenInto(m.h, x)
		s = mat.MulVecTransSqDist(dst, m.beta, m.h, x)
	}
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	return s
}

// Train folds one (x, t) sample into the model with the rank-1 RLS
// update. This is the only training path used at deployment time.
func (m *Model) Train(x, t []float64) {
	if len(t) != m.cfg.Outputs {
		panic(fmt.Sprintf("oselm: target dimension %d, want %d", len(t), m.cfg.Outputs))
	}
	// The forward pass: h = g(W·x+b), then the output βᵀh into e. On the
	// float32 backend both run at float32, the precision β actually
	// lives at, so the residual measures — and therefore corrects — the
	// rounded model's real error rather than an idealised float64
	// shadow's; h is widened once so the Sherman-Morrison recursion
	// runs untouched at float64.
	if m.w32 != nil {
		m.hidden32(x)
		mat.ConvertVec(m.h, m.h32)
		mat.MulVecTransF32(m.o32, m.beta32, m.h32)
		mat.ConvertVec(m.e, m.o32)
	} else {
		m.hiddenInto(m.h, x)
		mat.MulVecTrans(m.e, m.beta, m.h)
	}
	m.update(t, m.e)
}

// trainForwarded is Train for a sample whose forward pass the model's
// last call has already run: the hidden activations sit in h (h32 on
// the float32 backend) and y holds the output βᵀh at float64. Nothing
// may have touched the model since. The update then starts from those
// values instead of recomputing them, with Train's bits, and the
// operation counter is charged for the forward pass all the same: the
// count prices the algorithm, which runs it (see DESIGN §7).
func (m *Model) trainForwarded(t, y []float64) {
	if len(t) != m.cfg.Outputs {
		panic(fmt.Sprintf("oselm: target dimension %d, want %d", len(t), m.cfg.Outputs))
	}
	m.opsHidden()
	if m.w32 != nil {
		mat.ConvertVec(m.h, m.h32)
	}
	m.update(t, y)
}

// update is the rank-1 RLS step for target t around the hidden
// activations in m.h, whose model output βᵀh is y (which may be m.e).
// It charges the operation counter for βᵀh but not for h.
func (m *Model) update(t, y []float64) {
	h := m.h

	// ph = P·h
	mat.MulVec(m.ph, m.p, h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)

	alpha := m.cfg.Forgetting
	denom := alpha + mat.Dot(h, m.ph)
	m.ops.AddMulAdd(m.cfg.Hidden)
	m.ops.AddAdd(1)

	// With P symmetric positive definite, hᵀPh ≥ 0 and denom ≥ α > 0. A
	// non-positive or non-finite denominator means the inverse-covariance
	// state has already diverged; folding the sample in would poison β as
	// well. Repair P instead of continuing with garbage. Gated on the
	// same switch as the periodic watchdog (see initWatchdog): forgetting
	// variants run unguarded by default because their divergence is the
	// recorded baseline behaviour, not a fault.
	if m.wdPeriod > 0 && (!(denom > 0) || math.IsInf(denom, 0)) {
		m.repairDivergence()
		return
	}

	// P ← (P − ph·phᵀ/denom) / alpha
	m.p.AddScaledOuter(-1/denom, m.ph, m.ph)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)
	m.ops.AddDiv(1)
	if alpha != 1 {
		m.p.Scale(1 / alpha)
		m.ops.AddMul(m.cfg.Hidden * m.cfg.Hidden)
	}

	// e = t − βᵀh (residual against the *pre-update* β, using post-update
	// P per the OS-ELM recursion: β ← β + P·h·eᵀ).
	for i := range m.e {
		m.e[i] = t[i] - y[i]
	}
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	m.ops.AddAdd(m.cfg.Outputs)

	// gain k = P·h (with the updated P).
	mat.MulVec(m.ph, m.p, h)
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Hidden)
	if m.beta32 != nil {
		mat.ConvertVec(m.u32, m.ph)
		mat.ConvertVec(m.e32, m.e)
		m.beta32.AddScaledOuter(1, m.u32, m.e32)
	} else {
		m.beta.AddScaledOuter(1, m.ph, m.e)
	}
	m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)

	m.inits++
	m.wdCount++
	if m.wdCount >= m.wdPeriod {
		m.wdCount = 0
		m.watchdog()
	}
}

// Health is the RLS watchdog's structured view of the model state.
type Health struct {
	// PTrace is tr(P), a cheap condition proxy: it starts at H/λ and
	// shrinks as evidence accumulates; sustained explosion means the
	// Sherman-Morrison recursion has diverged.
	PTrace float64
	// PFinite and BetaFinite report whether every element of P / β is
	// finite right now.
	PFinite, BetaFinite bool
	// WatchdogResets counts divergence repairs (P re-initialised from the
	// calibration path) since the model was created.
	WatchdogResets uint64
}

// HealthNow scans the learned state and reports the watchdog's view of
// it. The scan is O(H² + H·M); call it at diagnostic cadence, not per
// sample — the periodic watchdog already guards the hot path.
func (m *Model) HealthNow() Health {
	return Health{
		PTrace:         m.p.Trace(),
		PFinite:        mat.AllFinite(m.p.Data),
		BetaFinite:     m.betaFinite(),
		WatchdogResets: m.wdResets,
	}
}

// WatchdogResets returns how many times the watchdog re-initialised P.
func (m *Model) WatchdogResets() uint64 { return m.wdResets }

// SetWatchdogPeriod overrides how many Train calls elapse between
// watchdog passes; period ≤ 0 disables the watchdog entirely — both the
// periodic pass and the in-update denominator guard. A positive period
// arms both, including on forgetting models where the watchdog is off
// by default (see initWatchdog).
func (m *Model) SetWatchdogPeriod(period int) {
	m.wdPeriod = period
	m.wdCount = 0
}

// watchdog is the periodic RLS health pass: it re-symmetrises P (rank-1
// updates preserve symmetry only up to floating-point rounding, and the
// Sherman-Morrison recursion assumes a symmetric P) and repairs outright
// divergence — non-finite elements or a trace explosion — by
// re-initialising P from the calibration path P₀ = (1/λ)·I. β is kept
// when finite: the learned mapping is still valid, only the step-size
// state is rebuilt.
func (m *Model) watchdog() {
	if m.wdPeriod <= 0 {
		return
	}
	tr := m.p.Trace()
	if math.IsNaN(tr) || math.IsInf(tr, 0) || tr > m.traceLimit || !mat.AllFinite(m.p.Data) {
		m.repairDivergence()
		return
	}
	// Re-symmetrise only when symmetry loss is material relative to P's
	// own scale. The rank-1 kernel rounds (i,j) and (j,i) independently,
	// so ulp-level mismatch is normal background noise; averaging it away
	// would needlessly perturb the model's trajectory every period.
	// Material loss only appears when state has been corrupted upstream.
	if diff, mag := m.p.Asymmetry(); diff > watchdogAsymmetryTol*mag {
		m.p.SymmetrizeInPlace()
	}
}

// repairDivergence is the graceful-degradation path: the inverse
// covariance restarts from P₀ exactly as a fresh sequential calibration
// would, and β is zeroed only if it was itself poisoned.
func (m *Model) repairDivergence() {
	m.p.Zero()
	m.p.AddDiag(1 / m.cfg.Ridge)
	if !m.betaFinite() {
		m.zeroBeta()
	}
	m.wdCount = 0
	m.wdResets++
}

// InitTrainBatch performs the classic OS-ELM batch initialisation from
// N₀ ≥ 1 samples: P = (HᵀH + λI)⁻¹, β = P·Hᵀ·T. The paper's deployed
// configuration avoids this path on-device; it is provided for parity
// with the original algorithm and for host-side initial training.
func (m *Model) InitTrainBatch(xs, ts [][]float64) error {
	if len(xs) == 0 || len(xs) != len(ts) {
		return fmt.Errorf("oselm: batch init needs matched non-empty samples, got %d/%d", len(xs), len(ts))
	}
	n := len(xs)
	hm := mat.New(n, m.cfg.Hidden)
	tm := mat.New(n, m.cfg.Outputs)
	for i, x := range xs {
		if m.w32 != nil {
			m.hidden32(x)
			mat.ConvertVec(hm.Row(i), m.h32)
		} else {
			m.hiddenInto(hm.Row(i), x)
		}
		t := ts[i]
		if len(t) != m.cfg.Outputs {
			return fmt.Errorf("oselm: target %d has dimension %d, want %d", i, len(t), m.cfg.Outputs)
		}
		copy(tm.Row(i), t)
	}
	gram := mat.New(m.cfg.Hidden, m.cfg.Hidden)
	mat.RidgeGram(gram, hm, m.cfg.Ridge)
	if err := mat.Inverse(m.p, gram); err != nil {
		return fmt.Errorf("oselm: batch init: %w", err)
	}
	ht := mat.New(m.cfg.Hidden, m.cfg.Outputs)
	mat.MulTransA(ht, hm, tm)
	if m.beta32 != nil {
		// Solve at float64 and narrow once — batch init is a host-side
		// path, so the conditioning of the normal equations wins over
		// keeping every intermediate at the deployment width.
		tmp := mat.New(m.cfg.Hidden, m.cfg.Outputs)
		mat.Mul(tmp, m.p, ht)
		mat.ConvertVec(m.beta32.Data, tmp.Data)
	} else {
		mat.Mul(m.beta, m.p, ht)
	}
	m.inits = n
	return nil
}

// Beta returns a deep copy of the learned output weights at float64,
// mainly for tests and serialisation.
func (m *Model) Beta() *mat.Matrix {
	if m.beta32 != nil {
		b := mat.New(m.beta32.Rows, m.beta32.Cols)
		mat.ConvertVec(b.Data, m.beta32.Data)
		return b
	}
	return m.beta.Clone()
}

// Weights returns the raw parameters at float64 — input weights W
// (row-major Hidden×Inputs), biases, and output weights β (row-major
// Hidden×Outputs) — for quantisation and export. The float64 backend
// returns live views the caller must not mutate; the float32 backend
// returns widened copies.
func (m *Model) Weights() (w, bias, beta []float64) {
	if m.w32 != nil {
		w = make([]float64, len(m.w32.Data))
		bias = make([]float64, len(m.bias32))
		beta = make([]float64, len(m.beta32.Data))
		mat.ConvertVec(w, m.w32.Data)
		mat.ConvertVec(bias, m.bias32)
		mat.ConvertVec(beta, m.beta32.Data)
		return w, bias, beta
	}
	return m.w.Data, m.bias, m.beta.Data
}

// MemoryBytes reports the number of bytes of persistent state the model
// retains (the quantity audited in the paper's Table 4), derived from
// the backend's element width. Scratch and staging buffers are included
// since a deployed implementation must also hold them; P and the RLS
// scratch are counted at float64 on every backend because that is where
// they live (see Config.Precision). A shared projection, which the
// model holds but does not own, is counted once by its owner instead.
func (m *Model) MemoryBytes() int {
	const f64 = 8
	training := f64 * (len(m.p.Data) + len(m.h) + len(m.ph) + len(m.e))
	es := m.cfg.Precision.Bytes()
	if m.w32 != nil {
		return training + es*(len(m.w32.Data)+len(m.bias32)+len(m.beta32.Data)+
			len(m.h32)+len(m.x32)+len(m.o32)+len(m.u32)+len(m.e32))
	}
	n := training + es*len(m.beta.Data)
	if !m.wShared {
		n += es * (len(m.w.Data) + len(m.bias))
	}
	return n
}

// InferenceBytes reports the bytes of inference-side state alone — the
// projection, biases, output weights and activation buffer. This is the
// footprint a deploy-only port carries (the RLS training state stays
// host-side) and it scales directly with the element width: float32 is
// exactly half of float64 at equal shape.
func (m *Model) InferenceBytes() int {
	es := m.cfg.Precision.Bytes()
	if m.w32 != nil {
		return es * (len(m.w32.Data) + len(m.bias32) + len(m.beta32.Data) + len(m.h32))
	}
	return es * (len(m.w.Data) + len(m.bias) + len(m.beta.Data) + len(m.h))
}
