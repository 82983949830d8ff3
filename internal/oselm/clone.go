package oselm

import "edgedrift/internal/mat"

// Clone returns a model at m's precision that continues m's stream. It
// shares what m never writes — the random projection W, b and its
// cached fingerprint — and holds m's learned state, β (β32 on the
// float32 backend) and P, copy-on-write: both models read the same
// slabs until one of them writes, and every writer (Train, Reset,
// InitTrainBatch, Merge, AdoptState) first takes a private copy (see
// own). The scoring scratch is the clone's own; the RLS scratch that
// only training reads (P·h, and the gain and residual narrowed to
// float32 on that backend) comes with the private copy, so a clone that
// never trains never holds it. The sequential-init counter and the
// watchdog state are copied, and no operation counter is attached.
// Clone marks m's learned state shared too, so it is a use of m under
// m's one-goroutine contract.
//
// A clone's MemoryBytes leaves the shared projection out, and the
// shared learned state until its first write; EachShared names them, so
// an audit over many clones counts each slab once.
func (m *Model) Clone() *Model {
	fp := m.Fingerprint()
	m.lshared, m.wShared = true, true
	c := &Model{
		cfg:        m.cfg,
		w:          m.w,
		bias:       m.bias,
		beta:       m.beta,
		p:          m.p,
		wShared:    true,
		lshared:    true,
		fprint:     fp,
		fprintOK:   true,
		w32:        m.w32,
		bias32:     m.bias32,
		beta32:     m.beta32,
		h:          make([]float64, m.cfg.Hidden),
		e:          make([]float64, m.cfg.Outputs),
		inits:      m.inits,
		wdPeriod:   m.wdPeriod,
		wdCount:    m.wdCount,
		wdResets:   m.wdResets,
		traceLimit: m.traceLimit,
	}
	if m.w32 != nil {
		c.h32 = make([]float32, m.cfg.Hidden)
		c.x32 = make([]float32, m.cfg.Inputs)
		c.o32 = make([]float32, m.cfg.Outputs)
	}
	return c
}

// own gives m private β (β32) and P before a write when it still shares
// them with a clone or a template: copies of the shared slabs when keep
// is set, zeroed ones when the caller overwrites them whole — and, on a
// clone, the RLS scratch Clone left out. The shared slabs themselves
// are never written.
func (m *Model) own(keep bool) {
	if !m.lshared {
		return
	}
	if m.ph == nil {
		m.ph = make([]float64, m.cfg.Hidden)
		if m.w32 != nil {
			m.u32 = make([]float32, m.cfg.Hidden)
			m.e32 = make([]float32, m.cfg.Outputs)
		}
	}
	p := mat.New(m.cfg.Hidden, m.cfg.Hidden)
	if m.beta32 != nil {
		b := mat.NewOf[float32](m.cfg.Hidden, m.cfg.Outputs)
		if keep {
			b.CopyFrom(m.beta32)
		}
		m.beta32 = b
	} else {
		b := mat.NewAligned(m.cfg.Hidden, m.cfg.Outputs)
		if keep {
			b.CopyFrom(m.beta)
		}
		m.beta = b
	}
	if keep {
		copy(p.Data, m.p.Data)
	}
	m.p, m.lshared = p, false
}

// SharesLearnedState reports whether m still reads β (β32) and P from
// slabs it shares with a clone or a template, having written neither
// since the clone was made.
func (m *Model) SharesLearnedState() bool { return m.lshared }

// ShareProjection rebinds m's float64 input layer to peer's when it
// holds exactly m's bits, and reports whether it did. The layer is fixed
// for a model's life — Reset keeps it, training never touches it, and
// AdoptState rebinds rather than writes it — so one read-only copy can
// serve any number of models; cooperative merge already requires peers
// to hold identical W and b (see CompatibleWith). A model that already
// holds peer's very slabs (a clone) is accepted without comparing them.
// Like Clone, it marks both models' projection shared, so from then on
// each one's MemoryBytes leaves W and b out and EachShared names them.
// It is a use of peer under peer's one-goroutine contract.
func (m *Model) ShareProjection(peer *Model) bool {
	if m.w == nil || peer.w == nil {
		return false
	}
	same := m.w == peer.w && len(m.bias) == len(peer.bias) && &m.bias[0] == &peer.bias[0]
	if !same && (peer.w.Rows != m.w.Rows || peer.w.Cols != m.w.Cols ||
		!sameBitsMat(m.w, peer.w) || !sameBits64(m.bias, peer.bias)) {
		return false
	}
	m.w, m.bias = peer.w, peer.bias
	m.wShared, peer.wShared = true, true
	return true
}

// EachShared calls fn once for every group of slabs m holds in common
// with other models and leaves out of its own MemoryBytes: the
// copy-on-write learned state until m's first write, and the projection
// once it is shared (see Clone and ShareProjection), at either
// precision. key is the same for every holder of a group — the P slab,
// the W slab — so an audit that counts each key once counts each slab
// once.
func (m *Model) EachShared(fn func(key any, bytes int)) {
	if m.lshared {
		fn(m.p, m.learnedBytes())
	}
	if m.wShared {
		fn(m.projection())
	}
}

// projection returns the W slab, which keys the projection for
// EachShared, and the size of W and b at the backend's width.
func (m *Model) projection() (any, int) {
	if m.w32 != nil {
		return m.w32, 4 * (len(m.w32.Data) + len(m.bias32))
	}
	return m.w, 8 * (len(m.w.Data) + len(m.bias))
}

// learnedBytes is the size of the learned state, β (β32) and P.
func (m *Model) learnedBytes() int {
	if m.beta32 != nil {
		return 8*len(m.p.Data) + 4*len(m.beta32.Data)
	}
	return 8 * (len(m.p.Data) + len(m.beta.Data))
}

// Clone returns a copy-on-write clone of the autoencoder (see
// Model.Clone) under the same score metric.
func (a *Autoencoder) Clone() *Autoencoder {
	return &Autoencoder{model: a.model.Clone(), metric: a.metric}
}
