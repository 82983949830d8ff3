package oselm

import (
	"errors"
	"fmt"
)

// AdoptState pours src's learned and random state into m in place:
// the learned output weights β, the RLS inverse-covariance P, the
// sequential-init counter and the watchdog phase are copied, and the
// random projection (W, b) — read-only for life — is rebound to src's,
// with src's shared mark, unless m already holds the same bits, so a
// projection m shares with other models is never written through and m
// keeps counting it the same way; neither is learned state m shares
// with its clones written, which is replaced by private slabs (see
// Clone). Both models must share one
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
	if m.cfg != src.cfg {
		return fmt.Errorf("oselm: AdoptState config mismatch: have %+v, adopting %+v", m.cfg, src.cfg)
	}
	m.own(false)
	if m.w32 != nil {
		if !sameBits32(m.w32.Data, src.w32.Data) || !sameBits32(m.bias32, src.bias32) {
			m.w32, m.bias32, m.wShared, m.fprintOK = src.w32, src.bias32, src.wShared, false
		}
		copy(m.beta32.Data, src.beta32.Data)
	} else {
		if !sameBitsMat(m.w, src.w) || !sameBits64(m.bias, src.bias) {
			m.w, m.bias, m.wShared, m.fprintOK = src.w, src.bias, src.wShared, false
		}
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
