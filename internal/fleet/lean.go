package fleet

import (
	"sync"

	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// Lean members: members cloned from one template hold bit-identical
// random projections, which never change, so the fleet interns them
// into one read-only copy, counted once in Fleet.MemoryBytes. Clones
// (oselm.Model.Clone) also share their template's learned state until
// their first write; the audit finds those slabs through the members
// that still hold them (sharedAudit) and counts each once too.

// slab is one interned projection and the number of members holding it.
type slab struct {
	proj   *oselm.Projection
	fprint uint64
	refs   int
}

// projections interns float64 projections by merge fingerprint.
type projections struct {
	mu    sync.Mutex
	slabs map[uint64][]*slab
	bytes int
}

// intern rebinds every float64 instance of mm to the fleet's copy of its
// projection, adding a copy when the fleet has none with those bits,
// and returns the slabs the member now holds. The fingerprint narrows
// the search; ShareProjection confirms each match bit for bit, so a
// hash collision can never bind a model to a different projection.
func (p *projections) intern(mm *model.Multi) []*slab {
	p.mu.Lock()
	defer p.mu.Unlock()
	var held []*slab
	for i := 0; i < mm.Classes(); i++ {
		om := mm.Instance(i).Model()
		if om.Precision() != oselm.Float64 {
			continue
		}
		fp := om.Fingerprint()
		var s *slab
		for _, c := range p.slabs[fp] {
			if om.ShareProjection(c.proj) {
				s = c
				break
			}
		}
		if s == nil {
			s = &slab{proj: om.Projection(), fprint: fp}
			om.ShareProjection(s.proj)
			p.slabs[fp] = append(p.slabs[fp], s)
			p.bytes += s.proj.Bytes()
		}
		s.refs++
		held = append(held, s)
	}
	return held
}

// release drops a departing member's holds, forgetting each slab no
// member holds any more.
func (p *projections) release(held []*slab) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range held {
		if s.refs--; s.refs > 0 {
			continue
		}
		l := p.slabs[s.fprint]
		for i, c := range l {
			if c == s {
				l = append(l[:i], l[i+1:]...)
				break
			}
		}
		if len(l) == 0 {
			delete(p.slabs, s.fprint)
		} else {
			p.slabs[s.fprint] = l
		}
		p.bytes -= s.proj.Bytes()
	}
}

// size reports the bytes of every interned projection.
func (p *projections) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// sharedAudit totals the slabs members hold in common without the fleet
// interning them — learned state and trained centroids shared
// copy-on-write with a template, float32 projections shared by clones —
// each counted once however many members hold it, and counts the
// members still sharing learned state.
type sharedAudit struct {
	seen    map[any]bool
	bytes   int
	streams int
}

// add folds in one member's stage; the caller holds the member lock.
func (a *sharedAudit) add(s core.Streaming) {
	d, ok := stageDetector(s)
	if !ok {
		return
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
// model's projections the fleet interns and whose shared slabs the
// audit counts. Baselines and the Q16.16 port have none.
func stageDetector(s core.Streaming) (*core.Detector, bool) {
	if h, ok := core.Find[detectorHolder](s); ok {
		return h.Detector(), true
	}
	return core.Find[*core.Detector](s)
}
