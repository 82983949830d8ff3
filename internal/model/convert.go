package model

import (
	"fmt"

	"edgedrift/internal/oselm"
)

// ConvertPrecision returns a new multi-instance model computing at
// precision p whose per-instance state is the converted image of m's
// (see oselm.Model.ConvertPrecision: weights narrowed, RLS state copied
// bit-for-bit). The receiver is not mutated — it is the retained origin
// of a runtime precision demotion, resumed as-is on promotion.
func (m *Multi) ConvertPrecision(p oselm.Precision) (*Multi, error) {
	cfg := m.cfg
	cfg.Precision = p
	nm := &Multi{
		cfg:       cfg,
		instances: make([]*oselm.Autoencoder, len(m.instances)),
	}
	for i, ae := range m.instances {
		conv, err := ae.ConvertPrecision(p)
		if err != nil {
			return nil, fmt.Errorf("model: instance %d: %w", i, err)
		}
		nm.instances[i] = conv
	}
	nm.bindScratch(nil)
	return nm, nil
}
