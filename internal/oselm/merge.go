package oselm

import (
	"errors"
	"fmt"
	"math"

	"edgedrift/internal/mat"
)

// ErrMergeIncompatible is the sentinel every merge-compatibility failure
// wraps: two models whose trained state cannot be combined — different
// shape, activation, precision, RLS constants, or seed topology (W·b).
// Policy layers (fleet warm recovery, anti-entropy) classify rejections
// with errors.Is against it; nothing is ever silently skipped.
var ErrMergeIncompatible = errors.New("oselm: models are merge-incompatible")

// MergeError is the typed incompatibility report. It wraps
// ErrMergeIncompatible and carries the specific reason.
type MergeError struct {
	// Reason names the first compatibility check that failed.
	Reason string
}

// Error implements error.
func (e *MergeError) Error() string { return "oselm: merge-incompatible: " + e.Reason }

// Unwrap makes errors.Is(err, ErrMergeIncompatible) true.
func (e *MergeError) Unwrap() error { return ErrMergeIncompatible }

func mergeErrf(format string, args ...interface{}) error {
	return &MergeError{Reason: fmt.Sprintf(format, args...)}
}

// CompatibleWith reports nil when o's trained state can be merged with
// m's, or a *MergeError naming the first mismatch. Mergeability requires
// identical shape, activation, precision, RLS constants and — because
// the closed form assumes one shared random projection — bit-identical
// W and bias.
func (m *Model) CompatibleWith(o *Model) error {
	if o == nil {
		return mergeErrf("nil model")
	}
	a, b := m.cfg, o.cfg
	switch {
	case a.Inputs != b.Inputs || a.Hidden != b.Hidden || a.Outputs != b.Outputs:
		return mergeErrf("shape D×H×M %d×%d×%d vs %d×%d×%d",
			a.Inputs, a.Hidden, a.Outputs, b.Inputs, b.Hidden, b.Outputs)
	case a.Activation != b.Activation:
		return mergeErrf("activation %v vs %v", a.Activation, b.Activation)
	case a.Precision != b.Precision:
		return mergeErrf("precision %v vs %v", a.Precision, b.Precision)
	case a.Forgetting != b.Forgetting:
		return mergeErrf("forgetting factor %v vs %v", a.Forgetting, b.Forgetting)
	case a.Ridge != b.Ridge:
		return mergeErrf("ridge %v vs %v", a.Ridge, b.Ridge)
	case a.WeightScale != b.WeightScale:
		return mergeErrf("weight scale %v vs %v", a.WeightScale, b.WeightScale)
	}
	if m.w32 != nil {
		if !sameBits32(m.w32.Data, o.w32.Data) || !sameBits32(m.bias32, o.bias32) {
			return mergeErrf("different seed topology (random projections W·b differ)")
		}
		return nil
	}
	if !sameBitsMat(m.w, o.w) || !sameBits64(m.bias, o.bias) {
		return mergeErrf("different seed topology (random projections W·b differ)")
	}
	return nil
}

// sameBitsMat reports whether a and b hold the same bits in every
// element, comparing rows so that padding never counts.
func sameBitsMat(a, b *mat.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !sameBits64(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

func sameBits64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBits32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Fingerprint returns the model's 64-bit merge-compatibility
// fingerprint: FNV-1a over everything CompatibleWith checks — shape,
// activation, precision, RLS constants, and the bit patterns of the
// random projection. Two models merge cleanly iff their fingerprints
// match (up to hash collision); fleet and wire layers use it to check
// compatibility without shipping full state, and the fleet keys its
// shared projections by it. It is computed once and cached.
func (m *Model) Fingerprint() uint64 {
	if !m.fprintOK {
		m.fprint, m.fprintOK = m.fingerprint(), true
	}
	return m.fprint
}

// fingerprint computes Fingerprint.
func (m *Model) fingerprint() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range [...]uint64{uint64(m.cfg.Inputs), uint64(m.cfg.Hidden), uint64(m.cfg.Outputs),
		uint64(m.cfg.Activation), uint64(m.cfg.Precision), math.Float64bits(m.cfg.Forgetting),
		math.Float64bits(m.cfg.Ridge), math.Float64bits(m.cfg.WeightScale)} {
		h = fnvWord(h, v)
	}
	if m.w32 != nil {
		for _, v := range m.w32.Data {
			h = fnvWord(h, uint64(math.Float32bits(v)))
		}
		for _, v := range m.bias32 {
			h = fnvWord(h, uint64(math.Float32bits(v)))
		}
	} else {
		for i := 0; i < m.w.Rows; i++ {
			for _, v := range m.w.Row(i) {
				h = fnvWord(h, math.Float64bits(v))
			}
		}
		for _, v := range m.bias {
			h = fnvWord(h, math.Float64bits(v))
		}
	}
	return h
}

// FNV-1a 64-bit constants (as in hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight little-endian bytes into the FNV-1a state h —
// exactly what hash/fnv computes over them, without one interface call
// per word.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// P returns a deep copy of the inverse-covariance state, for tests and
// diagnostics.
func (m *Model) P() *mat.Matrix { return m.p.Clone() }

// Merge replaces m's learned state (β, P) with the closed-form joint
// solution over the source models' states (Ito et al.: OS-ELM instances
// sharing one random projection combine without gradient averaging).
//
// Each P_k is the inverse of the ridge-regularised Gram of that model's
// hidden activations, P_k⁻¹ = H_kᵀH_k + λI, and P_k⁻¹·β_k = H_kᵀT_k.
// For sources trained on disjoint data the joint model is therefore
//
//	P = (Σ_k P_k⁻¹ − (K−1)·λ·I)⁻¹   (the ridge prior counted once)
//	β = P · Σ_k P_k⁻¹·β_k
//
// which is exactly the batch solution on the union of the sources'
// data — sample-weighted by construction, since each P_k⁻¹ carries its
// own evidence. Exactness holds at Forgetting == 1 (batch or sequential
// training); with a forgetting factor the same formula combines the
// decayed grams, a well-behaved approximation.
//
// m's own prior state does not contribute; include m itself in srcs to
// keep it. Every source must be merge-compatible with m (see
// CompatibleWith) — incompatibility is reported as a *MergeError
// wrapping ErrMergeIncompatible, and m is left untouched on any error.
func (m *Model) Merge(srcs ...*Model) error {
	if len(srcs) == 0 {
		return mergeErrf("no source models")
	}
	for i, s := range srcs {
		if err := m.CompatibleWith(s); err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
	}
	hn, mn := m.cfg.Hidden, m.cfg.Outputs
	sumInv := mat.New(hn, hn) // Σ_k P_k⁻¹ − (K−1)·λ·I
	rhs := mat.New(hn, mn)    // Σ_k P_k⁻¹·β_k
	pinv := mat.New(hn, hn)
	tmp := mat.New(hn, mn)
	total := 0
	for i, s := range srcs {
		if err := mat.Inverse(pinv, s.p); err != nil {
			return fmt.Errorf("oselm: merge source %d: invert P: %w", i, err)
		}
		for j, v := range pinv.Data {
			sumInv.Data[j] += v
		}
		mat.Mul(tmp, pinv, s.Beta())
		for j, v := range tmp.Data {
			rhs.Data[j] += v
		}
		total += s.inits
	}
	sumInv.AddDiag(float64(-float64(len(srcs)-1) * m.cfg.Ridge))
	pNew := mat.New(hn, hn)
	if err := mat.Inverse(pNew, sumInv); err != nil {
		return fmt.Errorf("oselm: merge: invert joint gram: %w", err)
	}
	betaNew := mat.New(hn, mn)
	mat.Mul(betaNew, pNew, rhs)
	if !mat.AllFinite(pNew.Data) || !mat.AllFinite(betaNew.Data) {
		return errors.New("oselm: merge produced non-finite state")
	}
	// Install only after every source combined cleanly: a failed merge
	// must leave m exactly as it was.
	m.own(false)
	copy(m.p.Data, pNew.Data)
	m.p.SymmetrizeInPlace() // the RLS recursion assumes symmetric P
	if m.beta32 != nil {
		mat.ConvertVec(m.beta32.Data, betaNew.Data)
	} else {
		m.beta.CopyFrom(betaNew)
	}
	m.inits = total
	m.wdCount = 0
	return nil
}

// Merge replaces the autoencoder's learned state with the closed-form
// combination of the sources' states (see Model.Merge). Score metrics
// must match: the metric is part of what peers agree on.
func (a *Autoencoder) Merge(srcs ...*Autoencoder) error {
	ms := make([]*Model, len(srcs))
	for i, s := range srcs {
		if s == nil {
			return mergeErrf("nil autoencoder")
		}
		if s.metric != a.metric {
			return mergeErrf("score metric %v vs %v", a.metric, s.metric)
		}
		ms[i] = s.model
	}
	return a.model.Merge(ms...)
}

// Fingerprint returns the autoencoder's merge-compatibility
// fingerprint: the model's, folded with the score metric.
func (a *Autoencoder) Fingerprint() uint64 {
	return fnvWord(fnvOffset64, a.model.Fingerprint()^(uint64(a.metric)+1))
}
