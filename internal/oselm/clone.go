package oselm

import "edgedrift/internal/mat"

// Clone returns a model at m's precision that continues m's stream. It
// shares m's frame — the configuration, the random projection W, b and
// its fingerprint, the watchdog limits and the scratch list its calls
// borrow their working sets from (see Scratches) — and holds m's
// learned state, β (β32 on the float32 backend) and P, copy-on-write:
// both models read the same slabs until one of them writes, and every
// writer (Train, Reset, InitTrainBatch, Merge, AdoptState) first takes
// a private copy (see own). The sequential-init counter and the
// watchdog state are copied, and no operation counter is attached.
// Clone marks m's frame and learned state shared too, so it is a use of
// m under m's one-goroutine contract.
//
// A clone's MemoryBytes leaves the shared projection and scratch list
// out, and the shared learned state until its first write; EachShared
// names them, so an audit over many clones counts each slab once.
func (m *Model) Clone() *Model {
	c := new(Model)
	m.cloneInto(c)
	return c
}

// cloneInto makes dst a clone of m (see Clone).
func (m *Model) cloneInto(dst *Model) {
	m.share()
	m.lshared = true
	*dst = Model{
		f:         m.f,
		beta:      m.beta,
		p:         m.p,
		beta32:    m.beta32,
		inits:     m.inits,
		wdCount:   m.wdCount,
		wdResets:  m.wdResets,
		fShared:   true,
		wShared:   true,
		lshared:   true,
		scrShared: m.scrShared,
	}
}

// CloneEach sets dst[i] to a clone of src[i] (see Autoencoder.Clone),
// with every clone's model in one allocation.
func CloneEach(dst, src []Autoencoder) {
	ms := make([]Model, len(src))
	for i := range src {
		src[i].model.cloneInto(&ms[i])
		dst[i] = Autoencoder{model: &ms[i], metric: src[i].metric}
	}
}

// share readies m's frame to be held by other models too: the
// fingerprint and a bare model's scratch list, which the frame caches,
// are made first, so no holder ever writes a shared frame, and m marks
// its frame, its projection, and a list it does not hold for a
// model.Multi, shared.
func (m *Model) share() {
	m.Fingerprint()
	m.scratches()
	m.fShared, m.wShared = true, true
	if !m.f.lent {
		m.scrShared = true
	}
}

// ownFrame gives m a private copy of its frame before a write to it,
// when other models may hold it, and returns it. The copy holds the
// same projection and list, so m's other marks stay as they are.
func (m *Model) ownFrame() *frame {
	if m.fShared {
		f := *m.f
		m.f, m.fShared = &f, false
	}
	return m.f
}

// own gives m private β (β32) and P before a write when it still shares
// them with a clone or a template: copies of the shared slabs when keep
// is set, zeroed ones when the caller overwrites them whole. The shared
// slabs themselves are never written.
func (m *Model) own(keep bool) {
	if !m.lshared {
		return
	}
	p := mat.New(m.f.cfg.Hidden, m.f.cfg.Hidden)
	if m.beta32 != nil {
		b := mat.NewOf[float32](m.f.cfg.Hidden, m.f.cfg.Outputs)
		if keep {
			b.CopyFrom(m.beta32)
		}
		m.beta32 = b
	} else {
		b := mat.NewAligned(m.f.cfg.Hidden, m.f.cfg.Outputs)
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
// The layer is rebound in m's own frame (see ownFrame), which keeps its
// configuration and scratch list; ShareFrame rebinds the whole frame.
// Like Clone, it marks both models' projection shared, so from then on
// each one's MemoryBytes leaves W and b out and EachShared names them.
// It is a use of peer under peer's one-goroutine contract.
func (m *Model) ShareProjection(peer *Model) bool {
	if m.f.w == nil || peer.f.w == nil {
		return false
	}
	if m.f.w != peer.f.w {
		if !sameProjection(m.f, peer.f) {
			return false
		}
		f := m.ownFrame()
		f.w, f.bias = peer.f.w, peer.f.bias
	}
	m.wShared, peer.wShared = true, true
	return true
}

// ShareFrame rebinds m to peer's frame when it holds m's configuration
// and watchdog limits and exactly m's float64 input layer, and reports
// whether it did: m then holds peer's projection, as ShareProjection
// rebinds it, and borrows its working sets from peer's scratch list
// too. A model that already holds peer's frame (a clone) is accepted
// without comparing it. Like Clone, it marks both models' frame
// shared. It is a use of peer under peer's one-goroutine contract.
func (m *Model) ShareFrame(peer *Model) bool {
	if m.f != peer.f && !m.f.fits(peer.f) {
		return false
	}
	peer.share()
	m.f, m.fShared, m.wShared, m.scrShared = peer.f, true, true, peer.scrShared
	return true
}

// fits reports whether the float64 frame o serves the models of f: the
// same configuration and watchdog limits, and the same bits of W and b.
func (f *frame) fits(o *frame) bool {
	return f.w != nil && o.w != nil && f.cfg == o.cfg &&
		f.wdPeriod == o.wdPeriod && f.traceLimit == o.traceLimit &&
		sameProjection(f, o)
}

// EachShared calls fn once for every group of slabs m holds in common
// with other models and leaves out of its own MemoryBytes: the
// copy-on-write learned state until m's first write, the projection
// once it is shared (see Clone and ShareProjection), at either
// precision, and the working sets of a shared scratch list (not of one
// a model.Multi lends, which the Multi names). key is the same for
// every holder of a group — the P slab, the W slab, the list — so an
// audit that counts each key once counts each slab once.
func (m *Model) EachShared(fn func(key any, bytes int)) {
	if m.lshared {
		fn(m.p, m.learnedBytes())
	}
	if m.wShared {
		fn(m.projection())
	}
	if m.scrShared {
		fn(m.f.scr, m.f.scr.Sets()*m.f.cfg.scratchBytes())
	}
}

// projection returns the W slab, which keys the projection for
// EachShared, and the size of W and b at the backend's width.
func (m *Model) projection() (any, int) {
	if m.f.w32 != nil {
		return m.f.w32, 4 * (len(m.f.w32.Data) + len(m.f.bias32))
	}
	return m.f.w, 8 * (len(m.f.w.Data) + len(m.f.bias))
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
