package oselm

import (
	"errors"
	"fmt"
)

// AdoptState pours src's learned and random state into m in place:
// the learned output weights β, the RLS inverse-covariance P, the
// sequential-init counter and the watchdog phase are copied, and the
// random projection (W, b) — read-only for life — is rebound to src's,
// with src's shared mark, in a private copy of m's frame, unless m
// already holds the same bits, so a frame or projection m shares with
// other models is never written through and m keeps counting it the
// same way; neither is learned state m shares with its clones written,
// which is replaced by private slabs (see Clone). Both models must share one
// configuration. Adoption exists for restores that must not rebind the
// model itself — a Monitor or a wrapping stage holds this model, so a
// checkpointed model is poured into the live instance rather than
// swapped for it. After AdoptState, m continues a stream
// bit-identically to src (the watchdog phase is copied because a
// re-symmetrisation pass landing on a different sample would change
// bits). The watchdog's lifetime reset counter is deliberately kept —
// it is m's health history, not model state.
func (m *Model) AdoptState(src *Model) error {
	if src == nil {
		return errors.New("oselm: AdoptState from nil model")
	}
	if m.f.cfg != src.f.cfg {
		return fmt.Errorf("oselm: AdoptState config mismatch: have %+v, adopting %+v", m.f.cfg, src.f.cfg)
	}
	m.own(false)
	if !sameProjection(m.f, src.f) {
		f := *m.f
		f.w, f.bias, f.w32, f.bias32, f.fprintOK = src.f.w, src.f.bias, src.f.w32, src.f.bias32, false
		m.f, m.fShared, m.wShared = &f, false, src.wShared
	}
	if m.beta32 != nil {
		copy(m.beta32.Data, src.beta32.Data)
	} else {
		m.beta.CopyFrom(src.beta)
	}
	copy(m.p.Data, src.p.Data)
	m.inits = src.inits
	m.wdCount = src.wdCount
	return nil
}

// AdoptState copies src's model state into the autoencoder in place;
// the score metric must match (it is part of the serialised identity).
func (a *Autoencoder) AdoptState(src *Autoencoder) error {
	if src == nil {
		return errors.New("oselm: AdoptState from nil autoencoder")
	}
	if a.metric != src.metric {
		return fmt.Errorf("oselm: AdoptState metric mismatch: %v vs %v", a.metric, src.metric)
	}
	return a.model.AdoptState(src.model)
}

// sameProjection reports whether f and o hold the same bits of W and b
// at their backend's width.
func sameProjection(f, o *frame) bool {
	if f.w32 != nil {
		return sameBits32(f.w32.Data, o.w32.Data) && sameBits32(f.bias32, o.bias32)
	}
	return sameBitsMat(f.w, o.w) && sameBits64(f.bias, o.bias)
}
