package oselm

import (
	"fmt"

	"edgedrift/internal/mat"
)

// Batched forward pass: N samples through the autoencoder as two GEMMs
// (X·Wᵀ then H·β) with the bias/activation pass fused between them,
// instead of N pairs of matvecs. The win is memory traffic: per-sample
// scoring re-streams W and β for every sample, so at the paper's shapes
// the matvec is bandwidth-bound; the batched kernels stream each weight
// row once per block of samples. Arithmetic per sample is unchanged and
// — by the kernel-parity invariants in internal/mat — bit-identical to
// the per-sample path at every precision, which is what lets the
// detector layer batch scoring without perturbing the paper's results.

// batchChunk caps how many samples one batched forward processes: large
// enough to amortise the weight streams, small enough that the scratch
// (chunk·(D+H+M) elements) stays a few hundred kB at the paper's largest
// shapes, and the unit the layers above use to size their own buffers.
const batchChunk = 64

// BatchScratch is the batched-forward working memory for one model
// shape: a chunk's activations and outputs. Only the backing store for
// the shape's precision is allocated. A forward pass needs it only for
// the duration of one call and leaves nothing in it the next call
// reads, so one scratch can serve any number of models of its shape in
// turn — the instances of a model.Multi, or every member of a fleet.
type BatchScratch struct {
	// Float64 backend.
	hb *mat.Matrix // batchChunk×Hidden activations
	ob *mat.Matrix // batchChunk×Outputs forward outputs

	// Float32 backend.
	xb32 *mat.MatrixOf[float32] // batchChunk×Inputs staged inputs
	hb32 *mat.MatrixOf[float32] // batchChunk×Hidden activations
	ob32 *mat.MatrixOf[float32] // batchChunk×Outputs forward outputs
}

// NewBatchScratch allocates the batch scratch for models of shape
// inputs×hidden×outputs computing at precision p.
func NewBatchScratch(inputs, hidden, outputs int, p Precision) *BatchScratch {
	if p == Float32 {
		return &BatchScratch{
			xb32: mat.NewOf[float32](batchChunk, inputs),
			hb32: mat.NewOf[float32](batchChunk, hidden),
			ob32: mat.NewOf[float32](batchChunk, outputs),
		}
	}
	return &BatchScratch{hb: mat.New(batchChunk, hidden), ob: mat.New(batchChunk, outputs)}
}

// Bytes reports the scratch footprint.
func (b *BatchScratch) Bytes() int {
	n := 0
	if b.hb != nil {
		n += 8 * (len(b.hb.Data) + len(b.ob.Data))
	}
	if b.xb32 != nil {
		n += 4 * (len(b.xb32.Data) + len(b.hb32.Data) + len(b.ob32.Data))
	}
	return n
}

// fits reports whether b is sized for m's shape and precision.
func (b *BatchScratch) fits(m *Model) bool {
	c := m.cfg
	if m.w32 != nil {
		return b.xb32 != nil && b.xb32.Cols == c.Inputs && b.hb32.Cols == c.Hidden && b.ob32.Cols == c.Outputs
	}
	return b.hb != nil && b.hb.Cols == c.Hidden && b.ob.Cols == c.Outputs
}

// UseBatchScratch makes m run its batched forwards on s, which the
// caller owns and counts: m's MemoryBytes leaves it out. A nil s drops
// the binding, and m allocates its own scratch on its next batch call.
// s must be sized for m's shape and precision.
func (m *Model) UseBatchScratch(s *BatchScratch) {
	if s != nil && !s.fits(m) {
		panic("oselm: batch scratch does not fit the model's shape")
	}
	m.bb, m.bbBorrowed = s, s != nil
}

// ensureBatch allocates the batch scratch on first use. Per-sample-only
// deployments (including everything the paper's tables measure) never
// call a batch entry point, so they carry none of this state.
func (m *Model) ensureBatch() *BatchScratch {
	if m.bb == nil {
		m.bb = NewBatchScratch(m.cfg.Inputs, m.cfg.Hidden, m.cfg.Outputs, m.cfg.Precision)
	}
	return m.bb
}

// viewRows returns an n-row window onto m's first n rows — a value
// header over the same backing array, so the batch kernels can operate
// on a partial chunk without reslicing allocations.
func viewRows[E mat.Element](m *mat.MatrixOf[E], n int) mat.MatrixOf[E] {
	return mat.MatrixOf[E]{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}

// forwardBatch runs the forward pass for len(chunk) ≤ batchChunk samples,
// leaving per-sample outputs in the scratch rows (ob for the float64
// backend, ob32 for float32). The op counter is charged exactly as
// len(chunk) Predict calls would charge it.
func (m *Model) forwardBatch(chunk [][]float64) {
	bb := m.ensureBatch()
	n := len(chunk)
	if n > batchChunk {
		panic("oselm: forwardBatch chunk exceeds batchChunk")
	}
	if m.w32 != nil {
		xb := viewRows(bb.xb32, n)
		for i, x := range chunk {
			if len(x) != m.cfg.Inputs {
				panic(fmt.Sprintf("oselm: input dimension %d, want %d", len(x), m.cfg.Inputs))
			}
			mat.ConvertVec(xb.Row(i), x)
		}
		hb := viewRows(bb.hb32, n)
		mat.MulBatchF32(&hb, &xb, m.w32)
		for i := 0; i < n; i++ {
			activateKernel(hb.Row(i), m.bias32, m.cfg.Activation)
		}
		ob := viewRows(bb.ob32, n)
		mat.MulBatchTransF32(&ob, &hb, m.beta32)
	} else {
		hb := viewRows(bb.hb, n)
		mat.MulBatchRows(&hb, chunk, m.w)
		for i := 0; i < n; i++ {
			activateKernel(hb.Row(i), m.bias, m.cfg.Activation)
		}
		ob := viewRows(bb.ob, n)
		mat.MulBatchTrans(&ob, &hb, m.beta)
	}
	for i := 0; i < n; i++ {
		m.opsHidden()
		m.ops.AddMulAdd(m.cfg.Hidden * m.cfg.Outputs)
	}
}
