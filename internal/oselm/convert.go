package oselm

import (
	"fmt"

	"edgedrift/internal/mat"
)

// ConvertPrecision returns a new model computing at precision p whose
// state is the narrowed image of m's: W, b and β are converted to the
// target element width while the RLS inverse-covariance P — float64 on
// every backend — is copied bit-for-bit, together with the
// sequential-init counter and the watchdog phase. This is the model half
// of a runtime precision demotion: the caller keeps m aside as the
// retained origin, runs the converted twin, and promotion is simply
// resuming m — no widening ever happens, so the origin stays bit-exact.
//
// Only narrowing conversions are supported (Float64 → Float32 today;
// Fixed16 has its own quantisation path in internal/fixed). m is not
// mutated.
func (m *Model) ConvertPrecision(p Precision) (*Model, error) {
	if p == m.f.cfg.Precision {
		return nil, fmt.Errorf("oselm: ConvertPrecision to the current precision %v", p)
	}
	if m.f.cfg.Precision != Float64 || p != Float32 {
		return nil, fmt.Errorf("oselm: unsupported precision conversion %v → %v (only f64 → f32; use internal/fixed for q16)", m.f.cfg.Precision, p)
	}
	cfg := m.f.cfg
	cfg.Precision = p
	nm := alloc(cfg)
	for i := 0; i < cfg.Hidden; i++ {
		mat.ConvertVec(nm.f.w32.Row(i), m.f.w.Row(i))
		mat.ConvertVec(nm.beta32.Row(i), m.beta.Row(i))
	}
	mat.ConvertVec(nm.f.bias32, m.f.bias)
	copy(nm.p.Data, m.p.Data)
	nm.inits = m.inits
	nm.wdCount = m.wdCount
	nm.wdResets = m.wdResets
	return nm, nil
}

// ConvertPrecision returns the autoencoder's reduced-precision twin:
// the model converted (see Model.ConvertPrecision) under the same score
// metric. The receiver is not mutated.
func (a *Autoencoder) ConvertPrecision(p Precision) (*Autoencoder, error) {
	nm, err := a.model.ConvertPrecision(p)
	if err != nil {
		return nil, err
	}
	return &Autoencoder{model: nm, metric: a.metric}, nil
}
