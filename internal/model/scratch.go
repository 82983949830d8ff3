package model

import "edgedrift/internal/oselm"

// Shape is what a model's batch scratch is sized from: two models of
// one shape can run their batched predictions on the same Scratch, one
// after the other.
type Shape struct {
	Classes, Inputs, Hidden int
	Precision               oselm.Precision
}

// Shape returns the shape m's batch scratch is sized from.
func (m *Multi) Shape() Shape {
	return Shape{Classes: m.cfg.Classes, Inputs: m.cfg.Inputs, Hidden: m.cfg.Hidden, Precision: m.cfg.Precision}
}

// Scratch is the working memory of one batched prediction: the
// batched-forward buffers, one score column per class, and the argmin
// labels and scores the detector stages a block in. PredictBatch scores
// the instances one after another and consumes each instance's forward
// outputs before the next runs, so one forward scratch serves all C
// instances; and nothing in a Scratch survives from one call to the
// next, so one Scratch can serve many models of its shape in turn. A
// model allocates its own on the first batch call, or borrows one from
// an owner that lends it (see Lend).
type Scratch struct {
	shape  Shape
	fwd    *oselm.BatchScratch
	cols   [][]float64 // C × predictBatchChunk per-instance scores
	labels []int       // predictBatchChunk argmin labels
	scores []float64   // predictBatchChunk argmin scores
}

// NewScratch allocates the batch scratch for models of shape s.
func NewScratch(s Shape) *Scratch {
	sc := &Scratch{
		shape:  s,
		fwd:    oselm.NewBatchScratch(s.Inputs, s.Hidden, s.Inputs, s.Precision),
		cols:   make([][]float64, s.Classes),
		labels: make([]int, predictBatchChunk),
		scores: make([]float64, predictBatchChunk),
	}
	for c := range sc.cols {
		sc.cols[c] = make([]float64, predictBatchChunk)
	}
	return sc
}

// Shape returns the shape the scratch is sized for.
func (s *Scratch) Shape() Shape { return s.shape }

// Bytes reports the scratch footprint. Score columns count at the
// backend's element width (the float64 slices are their widened image
// on reduced-precision backends); the label and score staging counts at
// eight bytes per entry.
func (s *Scratch) Bytes() int {
	n := s.fwd.Bytes() + 8*(len(s.labels)+len(s.scores))
	for _, col := range s.cols {
		n += s.shape.Precision.Bytes() * len(col)
	}
	return n
}

// Lend makes m run its batched predictions on s, which the caller owns
// and counts — m's MemoryBytes leaves it out — until the next Lend. A
// nil s takes the scratch back, and m allocates its own on its next
// batch call. s must be sized for m's shape.
func (m *Multi) Lend(s *Scratch) {
	m.bind(s)
	m.lent = s != nil
}

// bind points m and every instance at s (nil unbinds).
func (m *Multi) bind(s *Scratch) {
	if s != nil && s.shape != m.Shape() {
		panic("model: batch scratch does not fit the model's shape")
	}
	m.scratch = s
	var fwd *oselm.BatchScratch
	if s != nil {
		fwd = s.fwd
	}
	for _, ae := range m.instances {
		ae.Model().UseBatchScratch(fwd)
	}
}

// ensureScratch returns m's batch scratch, allocating m's own on first
// use. Per-sample-only deployments never call a batch entry point, so
// they carry none of this state.
func (m *Multi) ensureScratch() *Scratch {
	if m.scratch == nil {
		m.bind(NewScratch(m.Shape()))
	}
	return m.scratch
}

// BatchBuffers returns n-entry label and score buffers from m's batch
// scratch for staging one PredictBatch block (n ≤ 64), so a caller
// batching through m keeps no staging of its own.
func (m *Multi) BatchBuffers(n int) ([]int, []float64) {
	s := m.ensureScratch()
	return s.labels[:n], s.scores[:n]
}
