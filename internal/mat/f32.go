package mat

import "unsafe"

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
// reason). Callers opt in by choosing the F32 names.

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
	// The SIMD kernel runs four rows per step. A row's result depends
	// only on that row and x, so the Rows%4 leftover rows come from
	// rerunning the last four rows as one step, or, under four rows,
	// from one step per row with a zero row stride.
	w := m.Data
	cols, st := len(x), m.stride()
	if !f32SIMD || cols < f32SIMDMinLen {
		for i := range dst {
			dst[i] = dotKernel(m.Row(i), x)
		}
		return
	}
	rows := len(dst)
	g := rows / 4
	var s [4]float32
	if g == 0 {
		for r := range dst {
			dotRowsF32Asm(&s[0], &w[r*st], 0, &x[0], cols, 1)
			dst[r] = s[0]
		}
		return
	}
	dotRowsF32Asm(&dst[0], &w[0], st, &x[0], cols, g)
	if rem := rows - 4*g; rem > 0 {
		dotRowsF32Asm(&s[0], &w[(rows-4)*st], st, &x[0], cols, 1)
		copy(dst[4*g:], s[4-rem:])
	}
}

// MulVecTransF32 computes dst = mᵀ·x — the float32 MulVecTrans, in one
// SIMD call that keeps blocks of dst in registers across all rows (the
// zero-skip on tail rows mirrors the generic kernel). The SIMD kernel
// walks dense rows; a strided m takes the generic kernel.
func MulVecTransF32(dst []float32, m *MatrixOf[float32], x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(ErrShape)
	}
	if !f32SIMD || m.Cols < f32SIMDMinLen || m.stride() != m.Cols {
		MulVecTrans(dst, m, x)
		return
	}
	if len(m.Data) < len(x)*len(dst) {
		panic(ErrShape)
	}
	mulVecTransF32Asm(&dst[0], unsafe.SliceData(m.Data), unsafe.SliceData(x), len(x), len(dst), nil, nil)
}

// MulVecTransSqDistF32 computes dst = mᵀ·h as MulVecTransF32 does,
// widens it into wide as ConvertVec(wide, dst) does, and returns
// SqDist(ref, wide): the float32 backend's reconstruction and its
// squared residual against the float64 target ref, with the same bits
// as those three calls. On the SIMD path all three come from one pass
// over m. dst must not alias h.
func MulVecTransSqDistF32(wide []float64, dst []float32, m *MatrixOf[float32], h []float32, ref []float64) float64 {
	if len(h) != m.Rows || len(dst) != m.Cols || len(wide) != len(dst) || len(ref) != len(dst) {
		panic(ErrShape)
	}
	if !f32SIMD || m.Cols < f32SIMDMinLen || m.stride() != m.Cols {
		MulVecTransF32(dst, m, h)
		ConvertVec(wide, dst)
		return SqDist(ref, wide)
	}
	if len(m.Data) < len(h)*len(dst) {
		panic(ErrShape)
	}
	return mulVecTransF32Asm(&dst[0], unsafe.SliceData(m.Data), unsafe.SliceData(h), len(h), len(dst), &wide[0], &ref[0])
}

// useF32AVX reports whether a bit-exact float32 kernel with inner length
// n should take the AVX path: E is 4 bytes wide and the AVX probe (the
// float64 kernels' gate, which needs neither AVX2 nor FMA) passed.
func useF32AVX[E Element](n int) bool {
	var z E
	return unsafe.Sizeof(z) == 4 && f64SIMD && n >= f32SIMDMinLen
}

// addScaledOuterF32 is AddScaledOuter on the AVX path for float32:
// m ← m + s·u·vᵀ for the row-major len(u)×len(v) slab m, whose rows
// start stride elements apart, one kernel call per row, skipping the
// zero rows past the last multiple of four exactly as the generic code
// does.
func addScaledOuterF32(m []float32, s float32, u, v []float32, stride int) {
	cols := len(v)
	n4 := len(u) &^ 3
	if len(u) > 0 {
		_ = m[(len(u)-1)*stride+cols-1]
	}
	for i, ui := range u {
		su := s * ui
		if su == 0 && i >= n4 {
			continue
		}
		outerRowF32Asm(&m[i*stride], &v[0], su, cols)
	}
}

// convertF32F64 converts the leading multiple of four elements of src
// into dst with the AVX conversion kernels when one side is float32 and
// the other float64, and returns how many it converted (0 otherwise, or
// without AVX). The kernels round exactly as the scalar conversions do.
func convertF32F64[D, S Element](dst []D, src []S) int {
	var d D
	var s S
	n := len(src) &^ 3
	if !f64SIMD || n == 0 {
		return 0
	}
	switch {
	case unsafe.Sizeof(d) == 4 && unsafe.Sizeof(s) == 8:
		narrowF32Asm((*float32)(unsafe.Pointer(&dst[0])), (*float64)(unsafe.Pointer(&src[0])), n)
	case unsafe.Sizeof(d) == 8 && unsafe.Sizeof(s) == 4:
		widenF64Asm((*float64)(unsafe.Pointer(&dst[0])), (*float32)(unsafe.Pointer(&src[0])), n)
	default:
		return 0
	}
	return n
}
