package fleet

import (
	"sync"

	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// Lean members: state a member needs but need not own. A member scores
// a batch only under its own lock, one batch at a time, so the fleet
// lends it batch scratch for the call instead of every member keeping
// its own; and members cloned from one template hold bit-identical
// random projections, which never change, so the fleet interns them
// into one read-only copy. Both are counted once, in Fleet.MemoryBytes.

// scratchPool is the fleet's free list of batch scratch, per shape. A
// scratch is allocated only when every one of its shape is lent out,
// so there are never more than the number of concurrent batch calls.
type scratchPool struct {
	mu    sync.Mutex
	lists []scratchList // one per shape seen: a fleet runs one or two
	bytes int           // every scratch allocated, lent or free
}

// scratchList is the free scratch of one shape.
type scratchList struct {
	shape model.Shape
	free  []*model.Scratch
}

// list returns the free list for shape, adding it on first sight. The
// caller holds p.mu.
func (p *scratchPool) list(shape model.Shape) *scratchList {
	for i := range p.lists {
		if p.lists[i].shape == shape {
			return &p.lists[i]
		}
	}
	p.lists = append(p.lists, scratchList{shape: shape})
	return &p.lists[len(p.lists)-1]
}

// lend takes a scratch of the member's current shape from the pool and
// lends it to the member; nil when the member scores no model batch.
// The caller holds the member lock and must reclaim before releasing
// it.
func (p *scratchPool) lend(b core.ScratchBorrower) *model.Scratch {
	shape, ok := b.ScratchShape()
	if !ok {
		return nil
	}
	p.mu.Lock()
	var s *model.Scratch
	if l := p.list(shape); len(l.free) > 0 {
		s, l.free = l.free[len(l.free)-1], l.free[:len(l.free)-1]
	} else {
		s = model.NewScratch(shape)
		p.bytes += s.Bytes()
	}
	p.mu.Unlock()
	b.BorrowScratch(s)
	return s
}

// reclaim takes s back from the member and returns it to the pool.
func (p *scratchPool) reclaim(b core.ScratchBorrower, s *model.Scratch) {
	b.BorrowScratch(nil)
	p.mu.Lock()
	l := p.list(s.Shape())
	l.free = append(l.free, s)
	p.mu.Unlock()
}

// size reports the bytes of every scratch the pool has allocated.
func (p *scratchPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

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
