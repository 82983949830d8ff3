package fleet

import (
	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// Lean members: members of one template or seed hold bit-identical
// random projections, which never change, so a member joining the fleet
// is rebound to a live peer's copy (shareProjection), and clones
// (oselm.Model.Clone) share their template's projection and, until
// their first write, its learned state and trained centroids. Each
// model's MemoryBytes leaves what it shares out; the audit finds those
// slabs through the members that hold them (memoryAudit) and counts
// each once.

// shareProjection rebinds the float64 projections of mb, a member being
// registered, to those of a live member with the same merge
// fingerprint, so members of one projection hold one copy of W and b
// however they were made: cloned, decoded, or built apart from one
// seed. oselm.Model.ShareProjection checks each pair bit for bit, so a
// fingerprint collision binds nothing, and accepts a clone's own slabs
// by pointer. It tries the first match in each registry shard until one
// shares. The caller holds regMu and no other lock; each shard lock is
// released before a peer's member lock is taken.
func (f *Fleet) shareProjection(mb *member) {
	d, ok := stageDetector(mb.stage)
	if !ok || mb.merger == nil {
		return
	}
	for i := range f.shards {
		sh := &f.shards[i]
		var peer *member
		sh.mu.RLock()
		for _, p := range sh.members {
			if p.merger != nil && p.fprint == mb.fprint {
				peer = p
				break
			}
		}
		sh.mu.RUnlock()
		if peer != nil && sharePeer(d.Model(), peer) {
			return
		}
	}
}

// sharePeer rebinds every instance of mm to the projection of the same
// instance of peer's model, under peer's lock, and reports whether any
// instance was rebound; mm then borrows its working sets from peer's
// scratch list too.
func sharePeer(mm *model.Multi, peer *member) bool {
	peer.mu.Lock()
	defer peer.mu.Unlock()
	pd, ok := stageDetector(peer.stage)
	if peer.removed || !ok || pd.Model().Classes() != mm.Classes() {
		return false
	}
	shared := false
	for i := 0; i < mm.Classes(); i++ {
		if mm.Instance(i).Model().ShareProjection(pd.Model().Instance(i).Model()) {
			shared = true
		}
	}
	if shared {
		mm.ShareScratch(pd.Model())
	}
	return shared
}

// ShareProjection binds om, a model instance being decoded, to the
// projection of a live member's instance with om's fingerprint (see
// oselm.Projections and oselm.Model.ShareProjection), and reports
// whether it did: a decoded member then holds the registered copy of
// W and b instead of allocating its own. It takes each shard lock,
// then, released, the member locks one at a time, and holds no lock on
// return.
func (f *Fleet) ShareProjection(om *oselm.Model) bool {
	fp := om.Fingerprint()
	var cands []*member
	for i := range f.shards {
		sh := &f.shards[i]
		cands = cands[:0]
		sh.mu.RLock()
		for _, m := range sh.members {
			if m.merger != nil {
				cands = append(cands, m)
			}
		}
		sh.mu.RUnlock()
		for _, m := range cands {
			if memberShares(m, om, fp) {
				return true
			}
		}
	}
	return false
}

// memberShares is ShareProjection's try at one member, under its lock.
func memberShares(m *member, om *oselm.Model, fp uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := stageDetector(m.stage)
	if m.removed || !ok {
		return false
	}
	mm := d.Model()
	for i := 0; i < mm.Classes(); i++ {
		if peer := mm.Instance(i).Model(); peer.Fingerprint() == fp && om.ShareProjection(peer) {
			return true
		}
	}
	return false
}

// memoryAudit is the whole-fleet memory audit over the members it has
// visited: each member's own bytes (memberBytes) plus the slabs members
// hold in common — projections, and learned state and trained centroids
// shared copy-on-write with a template — each counted once however many
// members hold it. It also counts the members still sharing learned
// state.
type memoryAudit struct {
	seen    map[any]bool
	bytes   int
	streams int
}

// add folds in one member; the caller holds the member lock.
func (a *memoryAudit) add(id string, m *member) {
	a.bytes += memberBytes(id, m)
	d, ok := stageDetector(m.stage)
	if !ok {
		return
	}
	if a.seen == nil {
		a.seen = map[any]bool{}
	}
	d.EachShared(func(key any, n int) {
		if !a.seen[key] {
			a.seen[key] = true
			a.bytes += n
		}
	})
	mm := d.Model()
	for i := 0; i < mm.Classes(); i++ {
		if mm.Instance(i).Model().SharesLearnedState() {
			a.streams++
			return
		}
	}
}

// detectorHolder is the capability of a stage built around a proposed
// detector (a Monitor, a pool stage).
type detectorHolder interface {
	Detector() *core.Detector
}

// stageDetector finds the proposed detector in a member's stage chain —
// the detector a Monitor or a pool stage wraps, or a bare one — whose
// model's projection registration shares and whose shared slabs the
// audit counts. Baselines and the Q16.16 port have none.
func stageDetector(s core.Streaming) (*core.Detector, bool) {
	if h, ok := core.Find[detectorHolder](s); ok {
		return h.Detector(), true
	}
	return core.Find[*core.Detector](s)
}
