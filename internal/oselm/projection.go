package oselm

import "edgedrift/internal/mat"

// Projection is a float64 model's random input layer — the Hidden×Inputs
// weights W and the biases b — as a value models with the same bits can
// share. The layer is fixed for a model's life: Reset keeps it,
// training never touches it, and AdoptState rebinds rather than writes
// it, so one read-only copy can serve any number of models. Cooperative
// merge already requires peers to hold identical W and b (see
// CompatibleWith), which is why every member cloned from one template
// can hold a single copy.
type Projection struct {
	w    *mat.Matrix
	bias []float64
}

// Bytes reports the projection's footprint.
func (p *Projection) Bytes() int { return 8 * (len(p.w.Data) + len(p.bias)) }

// Projection returns m's input layer as a shareable value; nil on the
// float32 backend, whose narrowed copy belongs to the model alone.
func (m *Model) Projection() *Projection {
	if m.w == nil {
		return nil
	}
	return &Projection{w: m.w, bias: m.bias}
}

// ShareProjection rebinds m's input layer to p's slabs when they hold
// exactly m's bits, and reports whether it did. A model that already
// holds p's very slabs (a clone of a member) is accepted without
// comparing them. From then on m's MemoryBytes leaves W and b out:
// whoever keeps p counts them once.
func (m *Model) ShareProjection(p *Projection) bool {
	if m.w == nil || p == nil {
		return false
	}
	same := m.w == p.w && len(m.bias) == len(p.bias) && &m.bias[0] == &p.bias[0]
	if !same && (p.w.Rows != m.w.Rows || p.w.Cols != m.w.Cols ||
		!sameBitsMat(m.w, p.w) || !sameBits64(m.bias, p.bias)) {
		return false
	}
	m.w, m.bias, m.wShared = p.w, p.bias, true
	return true
}
