package mat

// Batch forms of the matvec kernels: one MulVec or MulVecTrans call per
// row, so every output row is bit-identical to the per-sample kernel at
// every element type.

// MulBatchTrans computes dst's row i = mᵀ·(a's row i) for every row of
// a, one MulVecTrans call per row.
func MulBatchTrans[E Element](dst, a, m *MatrixOf[E]) {
	if dst.Rows != a.Rows || a.Cols != m.Rows || dst.Cols != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		MulVecTrans(dst.Row(i), m, a.Row(i))
	}
}

// MulBatchRows computes dst = X·bᵀ for the samples X given as a slice
// of rows: dst's row i is MulVec(b, xs[i]). With b a weight matrix
// (H×D), dst is the N×H batch of per-sample hidden pre-activations.
// dst must be len(xs)×b.Rows and every sample must have length b.Cols.
func MulBatchRows[E Element](dst *MatrixOf[E], xs [][]E, b *MatrixOf[E]) {
	if dst.Rows != len(xs) || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	for i, x := range xs {
		MulVec(dst.Row(i), b, x)
	}
}
