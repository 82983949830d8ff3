package oselm

import (
	"sync"
	"sync/atomic"
)

// Scratch is one model's working set for one call: the activations,
// residual and RLS gain a Score, Predict or Train writes and no later
// call reads, plus the float32 staging buffers on that backend. A model
// holds none of it; each call borrows a group of them from the model's
// Scratches and gives it back before it returns, so models of one
// shape that take turns on a goroutine — the clones of a template, the
// members of a fleet — hold one working set per concurrent call between
// them, as ONLAD's device holds one.
type Scratch struct {
	h   []float64 // hidden activations (float64 image on the f32 path)
	ph  []float64 // RLS gain P·h
	e   []float64 // reconstruction βᵀh, then the residual tᵀ − hᵀβ
	h32 []float32 // hidden activations
	x32 []float32 // input narrowed to float32
	o32 []float32 // forward output βᵀ·h
	u32 []float32 // RLS gain P·h narrowed to float32
	e32 []float32 // residual narrowed to float32
	// score is the slot's last Score result, the per-instance score
	// buffer a model.Multi takes its argmin over.
	score float64
}

// Score returns the score the slot's last ScoreIn left in it.
func (s *Scratch) Score() float64 { return s.score }

// scratchBytes is the size of one Scratch's buffers for models of
// configuration c: the float64 ones on every backend, the float32
// staging on the float32 one.
func (c Config) scratchBytes() int {
	n := 8 * (2*c.Hidden + c.Outputs)
	if c.Precision == Float32 {
		n += 4 * (2*c.Hidden + c.Inputs + 2*c.Outputs)
	}
	return n
}

// ScratchBytes returns the size of one Scratch's buffers for models of
// configuration c (defaults applied, as Model.Config returns it).
func ScratchBytes(c Config) int { return c.scratchBytes() }

// Scratches is the free list a group of same-shape models borrows its
// working sets from. Each set holds width slots, one per model of the
// group: a bare model's list has width 1, a model.Multi's one slot per
// instance, so the Multi borrows once per call for all its instances.
// Get takes a free set or makes one, Put gives it back, and no set is
// ever dropped: the list holds as many sets as calls have ever
// overlapped on it, and its holders' audits count exactly those (Sets).
// The set given back last waits in an atomic slot, so a caller that
// finds it there, as one goroutine taking turns always does, takes no
// lock; the others wait on a mutex-guarded stack. It is not a
// sync.Pool, which may drop sets (under the race detector, and at every
// GC), so a zero-allocation call would allocate, and whose bytes no
// audit could count. It is safe for concurrent use.
type Scratches struct {
	last  atomic.Pointer[ScratchSet]
	mu    sync.Mutex
	free  []*ScratchSet
	made  int
	cfg   Config
	width int
}

// ScratchSet is one working set of a Scratches list: a slot per model
// of its group.
type ScratchSet struct{ slots []Scratch }

// Slot returns the working set of the group's i-th model.
func (g *ScratchSet) Slot(i int) *Scratch { return &g.slots[i] }

// NewScratches returns an empty free list of width-slot sets for
// models of configuration c (defaults applied). It makes no set until
// the first Get.
func NewScratches(c Config, width int) *Scratches {
	return &Scratches{cfg: c, width: width}
}

// Get borrows a set.
func (l *Scratches) Get() *ScratchSet {
	if g := l.last.Swap(nil); g != nil {
		return g
	}
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		g := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return g
	}
	l.made++
	if cap(l.free) < l.made {
		// Room for every set the list owns, so Put never allocates.
		l.free = append(make([]*ScratchSet, 0, 2*l.made), l.free...)
	}
	l.mu.Unlock()
	g := &ScratchSet{slots: make([]Scratch, l.width)}
	for i := range g.slots {
		g.slots[i] = newScratch(l.cfg)
	}
	return g
}

// Put returns a set Get lent.
func (l *Scratches) Put(g *ScratchSet) {
	if l.last.CompareAndSwap(nil, g) {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, g)
	l.mu.Unlock()
}

// Sets is the number of sets the list's holders audit: every set it
// has made, and at least one, since no call runs without one.
func (l *Scratches) Sets() int {
	if l == nil {
		return 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(l.made, 1)
}

// Fits reports whether the list serves models of configuration c in
// sets of width slots.
func (l *Scratches) Fits(c Config, width int) bool {
	return l.cfg == c && l.width == width
}

func newScratch(c Config) Scratch {
	s := Scratch{
		h:  make([]float64, c.Hidden),
		ph: make([]float64, c.Hidden),
		e:  make([]float64, c.Outputs),
	}
	if c.Precision == Float32 {
		s.h32 = make([]float32, c.Hidden)
		s.x32 = make([]float32, c.Inputs)
		s.o32 = make([]float32, c.Outputs)
		s.u32 = make([]float32, c.Hidden)
		s.e32 = make([]float32, c.Outputs)
	}
	return s
}

// scratches returns m's free list, making a bare model's own on first
// use.
func (m *Model) scratches() *Scratches {
	if m.scr == nil {
		m.scr = NewScratches(m.cfg, 1)
	}
	return m.scr
}

// borrow takes a set from m's list and returns it with m's slot in it.
func (m *Model) borrow() (*ScratchSet, *Scratch) {
	g := m.scratches().Get()
	return g, g.Slot(m.slot)
}

// UseScratch binds m to slot of the sets of l, a list its holder — a
// model.Multi over m and its sibling instances — owns and audits: m's
// own calls borrow from l, and m's MemoryBytes and EachShared leave l
// to the holder. l must serve m's configuration.
func (m *Model) UseScratch(l *Scratches, slot int) {
	m.scr, m.slot, m.scrLent, m.scrShared = l, slot, true, false
}

// scratchOwnBytes is what m's list adds to its own MemoryBytes: every
// set of a list m alone holds, nothing of one it shares or is lent.
func (m *Model) scratchOwnBytes() int {
	if m.scrLent || m.scrShared {
		return 0
	}
	return m.scr.Sets() * m.cfg.scratchBytes()
}
