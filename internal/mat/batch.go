package mat

// Batched scoring kernels: the N-samples-at-a-time counterpart of
// MulVec. Scoring a batch as one GEMM amortises the weight-matrix loads
// — per-sample matvecs at the paper's shapes (D up to 511, H 22..128)
// re-stream W from memory for every sample, so the matvec is bound by
// W/β bandwidth, not arithmetic.
//
// Every output element is the same dot product the per-sample MulVec
// computes (both run mulVecRows, with the weight row as the first
// operand), so batch scores are bit-identical to per-sample scores at
// every element type, regardless of the blocking. Blocking only
// reorders which (sample, row) pair is computed when: a block of
// samples stays resident in L1 while each block of weight rows is
// streamed once per sample block instead of once per sample.

// batchRowBlock is the block size of the batched kernels, for samples
// and weight rows alike: small enough that four input rows and four
// weight rows stay L1-resident together at the paper's largest D
// (2·4·511·8 B ≈ 32 kB of f64), large enough to cut weight traffic 4×.
// Four weight rows is also what one float64 SIMD kernel call consumes.
const batchRowBlock = 4

// MulBatchTrans computes dst's row i = mᵀ·(a's row i) for every row of
// a — the batched output-layer pass. Each row is exactly one MulVecTrans
// call, so batched results are bit-identical to per-sample ones at every
// element type; the batch form exists so m (β in the scoring path) is
// walked while still cache-warm from the previous row.
func MulBatchTrans[E Element](dst, a, m *MatrixOf[E]) {
	if dst.Rows != a.Rows || a.Cols != m.Rows || dst.Cols != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		MulVecTrans(dst.Row(i), m, a.Row(i))
	}
}

// MulBatchRows computes dst = X·bᵀ for the samples X given as a slice
// of rows: dst[i][j] is the inner product of xs[i] and b's row j. With
// b a weight matrix (H×D), dst is the N×H batch of per-sample MulVec
// results. Taking rows instead of a packed matrix is the form the
// scoring path uses, avoiding a pack copy when the batch arrives as
// [][]float64. dst must be len(xs)×b.Rows and every sample must have
// length b.Cols.
func MulBatchRows[E Element](dst *MatrixOf[E], xs [][]E, b *MatrixOf[E]) {
	if dst.Rows != len(xs) || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	dc := dst.Cols
	cols := b.Cols
	for i0 := 0; i0 < len(xs); i0 += batchRowBlock {
		i1 := min(i0+batchRowBlock, len(xs))
		for i := i0; i < i1; i++ {
			if len(xs[i]) != cols {
				panic(ErrShape)
			}
		}
		for j0 := 0; j0 < b.Rows; j0 += batchRowBlock {
			j1 := min(j0+batchRowBlock, b.Rows)
			w := b.Data[j0*cols : j1*cols]
			for i := i0; i < i1; i++ {
				mulVecRows(dst.Data[i*dc+j0:i*dc+j1], w, xs[i])
			}
		}
	}
}
