package model

import (
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/oselm"
)

// magic identifies a serialised multi-instance model (MULTI2): the
// class count and the per-instance autoencoder artifacts, wrapped in a
// whole-stream CRC32 footer that covers the per-instance checksums too.
const magic = "MULTI2"

// Save serialises the model — configuration plus every instance — so a
// host-trained model can be shipped to a device (use oselm.Float32 for
// the halved deployment footprint).
func (m *Multi) Save(w io.Writer, prec oselm.Precision) (int64, error) {
	cw, err := ckpt.Create(w, magic)
	if err == nil {
		err = ckpt.PutU32(cw, uint32(m.cfg.Classes))
	}
	for i := 0; err == nil && i < len(m.instances); i++ {
		if _, err = m.instances[i].Save(cw, prec); err != nil {
			err = fmt.Errorf("model: instance %d: %w", i, err)
		}
	}
	if err == nil {
		err = cw.WriteFooter()
	}
	return cw.N(), err
}

// Load deserialises a MULTI2 model written by Save. Every failure
// matches ckpt.ErrBadFormat.
func Load(r io.Reader) (*Multi, error) { return LoadWith(r, nil) }

// LoadWith is Load reading every instance's projection through p (see
// oselm.Projections); a nil p loads as Load does.
func LoadWith(r io.Reader, p *oselm.Projections) (*Multi, error) {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return nil, err
	}
	m, err := loadBody(cr, p)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return nil, ckpt.Corrupt("model", err)
	}
	return m, nil
}

// loadBody parses the payload that follows the magic.
func loadBody(r io.Reader, p *oselm.Projections) (*Multi, error) {
	n, err := ckpt.GetU32(r)
	if err != nil {
		return nil, err
	}
	classes := int(n)
	if classes <= 0 || classes > 1<<20 {
		return nil, ckpt.ErrBadFormat
	}
	// The instance list grows as instances arrive: a forged count fails
	// at the first missing instance having allocated for the ones the
	// stream carried, not for the 1<<20 it may claim.
	m := &Multi{}
	for i := 0; i < classes; i++ {
		ae, err := oselm.LoadAutoencoderWith(r, p)
		if err != nil {
			return nil, fmt.Errorf("model: instance %d: %w", i, err)
		}
		m.instances = append(m.instances, *ae)
	}
	c0 := m.instances[0].Model().Config()
	m.cfg = &Config{
		Classes:     classes,
		Inputs:      c0.Inputs,
		Hidden:      c0.Hidden,
		Forgetting:  c0.Forgetting,
		Ridge:       c0.Ridge,
		WeightScale: c0.WeightScale,
		Precision:   c0.Precision,
	}
	// The model's config is instance 0's, so the instances must agree
	// on shape and precision, as every saved model does.
	for i := range m.instances[1:] {
		ci := m.instances[i+1].Model().Config()
		if ci.Inputs != c0.Inputs || ci.Hidden != c0.Hidden || ci.Precision != c0.Precision {
			return nil, fmt.Errorf("model: instance %d shape %d×%d %v differs from %d×%d %v",
				i+1, ci.Inputs, ci.Hidden, ci.Precision, c0.Inputs, c0.Hidden, c0.Precision)
		}
	}
	m.bindScratch(nil)
	return m, nil
}
