package mat

// Float32 fast-path kernels. The generic kernel layer compiles to clean
// scalar loops — gc does not auto-vectorize — so a float32 matvec runs
// at the same MACs/cycle as float64 while the paper's pitch for f32 is
// bandwidth and speed. These concrete float32 entry points dispatch to
// hand-written AVX2+FMA kernels (f32_amd64.s) when the running CPU has
// them and fall back to the shared generic kernels everywhere else
// (including the GOARCH=arm cross-build and pre-AVX2 amd64).
//
// They are separate entry points, not a dispatch inside the generic
// kernels as the float64 path does (f64.go), because their results
// differ from the generic kernels': the SIMD kernels fuse multiply-adds
// and use wider accumulator trees than the scalar reference, so float32
// results are CPU-feature-dependent within the usual accumulation-error
// envelope (the f32 backend's tests are tolerance-based for exactly this
// reason). Callers opt in by choosing the F32 names. What is guaranteed
// — and what the batch path relies on — is self-consistency: the
// per-sample and batched entry points below share one kernel per
// operation, so batched f32 scores are bit-identical to per-sample f32
// scores on any given machine.

// f32SIMD reports whether the AVX2+FMA kernels are usable on this CPU.
// Set once at init by the amd64 feature probe; never true elsewhere.
var f32SIMD bool

// F32SIMD reports whether the float32 kernels are running the
// hand-written SIMD path on this machine (AVX2+FMA, amd64 only). The
// benchmarks record it so throughput numbers are attributable.
func F32SIMD() bool { return f32SIMD }

// f32SIMDMinLen is the vector length below which the scalar kernel wins:
// under one 8-lane step the asm call is all prologue and tail.
const f32SIMDMinLen = 8

// MulVecF32 computes dst = m·x — the float32 MulVec with SIMD row dots.
func MulVecF32(dst []float32, m *MatrixOf[float32], x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(ErrShape)
	}
	mulVecRowsF32(dst, m.Data, x)
}

// mulVecRowsF32 sets dst[r] = row r of the row-major len(dst)×len(x)
// slab w times x — MulVecF32's body, shared with MulBatchF32. The SIMD
// kernel runs four rows per step. A row's result depends only on that
// row and x, so the len(dst)%4 leftover rows come from rerunning the
// last four rows as one step, or, under four rows, from one step per
// row with a zero row stride.
func mulVecRowsF32(dst, w, x []float32) {
	cols := len(x)
	if !f32SIMD || cols < f32SIMDMinLen {
		for i := range dst {
			dst[i] = dotKernel(w[i*cols:i*cols+cols], x)
		}
		return
	}
	rows := len(dst)
	g := rows / 4
	var s [4]float32
	if g == 0 {
		for r := range dst {
			dotRowsF32Asm(&s[0], &w[r*cols], 0, &x[0], cols, 1)
			dst[r] = s[0]
		}
		return
	}
	dotRowsF32Asm(&dst[0], &w[0], cols, &x[0], cols, g)
	if rem := rows - 4*g; rem > 0 {
		dotRowsF32Asm(&s[0], &w[(rows-4)*cols], cols, &x[0], cols, 1)
		copy(dst[4*g:], s[4-rem:])
	}
}

// MulVecTransF32 computes dst = mᵀ·x — the float32 MulVecTrans, folding
// four matrix rows into dst per SIMD sweep and remaining rows one at a
// time (the zero-skip on tail rows mirrors the generic kernel).
func MulVecTransF32(dst []float32, m *MatrixOf[float32], x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(ErrShape)
	}
	if !f32SIMD || m.Cols < f32SIMDMinLen {
		MulVecTrans(dst, m, x)
		return
	}
	clear(dst)
	cols := m.Cols
	n := m.Rows
	g := n / 4
	if g > 0 {
		axpyRowsF32Asm(&dst[0], &m.Data[0], cols, &x[0], cols, g)
	}
	for i := 4 * g; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpy1F32Asm(&dst[0], &m.Data[i*cols], xi, cols)
	}
}

// MulBatchF32 is the float32 batched hidden-layer pass: dst = a·bᵀ,
// each row of dst the same mulVecRowsF32 MulVecF32 runs, blocked like
// MulBatchRows so a block of a's rows is L1-resident while each block
// of b's rows streams once per block.
func MulBatchF32(dst, a, b *MatrixOf[float32]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	dc := dst.Cols
	cols := a.Cols
	for i0 := 0; i0 < a.Rows; i0 += batchRowBlock {
		i1 := min(i0+batchRowBlock, a.Rows)
		for j0 := 0; j0 < b.Rows; j0 += batchRowBlock {
			j1 := min(j0+batchRowBlock, b.Rows)
			w := b.Data[j0*cols : j1*cols]
			for i := i0; i < i1; i++ {
				mulVecRowsF32(dst.Data[i*dc+j0:i*dc+j1], w, a.Row(i))
			}
		}
	}
}

// MulBatchTransF32 computes dst's row i = mᵀ·(a's row i) for every row
// of a — the batched output-layer pass (O = H·β for row-major per-sample
// activations). It is exactly MulVecTransF32 per row, so batched outputs
// are bit-identical to per-sample ones; the batch win for this pass is
// β staying cache-hot across the rows of one block.
func MulBatchTransF32(dst, a *MatrixOf[float32], m *MatrixOf[float32]) {
	if dst.Rows != a.Rows || a.Cols != m.Rows || dst.Cols != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		MulVecTransF32(dst.Row(i), m, a.Row(i))
	}
}
