package model

import (
	"errors"
	"fmt"
)

// AdoptState copies src's per-instance model state into m in place —
// every autoencoder's weights, RLS state and watchdog phase — without
// rebinding any pointer, so detectors and monitors holding m keep
// working and m continues a stream bit-identically to src. Both models
// must share one configuration. Used by the reoccurring-drift model
// pool to restore a checkpointed model into the live instance.
func (m *Multi) AdoptState(src *Multi) error {
	if src == nil {
		return errors.New("model: AdoptState from nil model")
	}
	// Shape check here; the authoritative config comparison happens per
	// instance, where both sides hold the normalised (defaults applied)
	// configuration — a constructed Multi keeps the caller's raw zeros
	// while a loaded one carries materialised defaults, so comparing at
	// this level would reject state that is in fact identical.
	if len(m.instances) != len(src.instances) {
		return fmt.Errorf("model: AdoptState class mismatch: have %d, adopting %d", len(m.instances), len(src.instances))
	}
	for i := range m.instances {
		if err := m.instances[i].AdoptState(&src.instances[i]); err != nil {
			return fmt.Errorf("model: instance %d: %w", i, err)
		}
	}
	return nil
}
