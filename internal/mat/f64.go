package mat

import "unsafe"

// Float64 SIMD path. The generic entry points MulVec, MulVecTrans,
// MulVecTransSqDist, Dot and AddScaledOuter (and the batch forms built
// on them) dispatch here, and RunningMeanUpdateL1Dist straight to its
// kernel, when their element type is 8 bytes wide
// (float64, or a type defined over it) and the CPU has AVX
// (f64_amd64.s). unsafe.Sizeof of a type parameter folds to a constant
// in each shape instantiation, so the float32 instantiations compile the
// test away and the float64 ones reach these functions through
// unsafe.Slice views, with no interface boxing and no allocation.
//
// Unlike the float32 kernels, these are bit-identical to the generic Go
// kernels: no FMA, and every lane runs one of the Go code's own add
// chains in the Go code's order. A dot product keeps dotKernel's four
// strided accumulators as the four lanes of one YMM register, so the
// kernel cannot split a row's chain any further; it gains by running
// four weight rows' chains side by side, sharing each x load. A
// transposed product runs independent output columns side by side and
// keeps a block of them in registers across all rows. MulVec and
// MulVecTrans are one kernel call each, tails and zero-skips included;
// only AddScaledOuter's zero-skip tail rows stay in Go below, written
// exactly as in the generic code.

// f64SIMD reports whether the AVX kernels that reproduce the Go code bit
// for bit are usable on this CPU: the float64 kernels here, and the
// float32 conversions and rank-1 update (f32.go). Set once at init by
// the amd64 feature probe; never true elsewhere. Tests toggle it to
// compare the kernels with the Go code.
var f64SIMD bool

// f64SIMDMinLen is the vector length below which the Go kernel is used.
// It exists for correctness, not speed: the dot kernels run at least one
// 4-element step and must not be entered with fewer than four elements.
const f64SIMDMinLen = 4

// useF64SIMD reports whether a kernel over E with inner length n should
// take the float64 SIMD path.
func useF64SIMD[E Element](n int) bool {
	var z E
	return unsafe.Sizeof(z) == 8 && f64SIMD && n >= f64SIMDMinLen
}

// f64View reinterprets s as []float64. Callers check useF64SIMD first,
// which guarantees E has float64's representation.
func f64View[E Element](s []E) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// f32View reinterprets s as []float32. Callers check useF32AVX first,
// which guarantees E has float32's representation.
func f32View[E Element](s []E) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// dotF64 is dotKernel(a, b) on the AVX path: a one-row mulVecF64;
// len(a) >= 4, len(b) >= len(a).
func dotF64(a, b []float64) float64 {
	var s float64
	mulVecF64Asm(&s, &a[0], &b[0], 1, len(a), len(a))
	return s
}

// mulVecF64 sets dst[r] = dotKernel(row r of w, x) for the row-major
// len(dst)×len(x) slab w, whose rows start stride elements apart, in
// one kernel call; len(x) >= 4.
func mulVecF64(dst, w, x []float64, stride int) {
	if len(dst) == 0 {
		return
	}
	_ = w[(len(dst)-1)*stride+len(x)-1]
	mulVecF64Asm(&dst[0], &w[0], &x[0], len(dst), len(x), stride)
}

// mulVecTransChunk is how many rows of w one mulVecTransF64Asm call
// covers. A column block touches every row it covers, each row on its
// own 4 KiB page at the fan width; at H=128 one call over all rows ran
// ~15% slower than calls of 16 to 64 rows, consistent with a 64-entry
// L1 data TLB. Each call continues the chains the last one left in dst,
// so chunking does not change a bit.
const mulVecTransChunk = 32

// mulVecTransF64 is MulVecTrans on the AVX path: dst = wᵀ·x for the
// row-major len(x)×len(dst) slab w, whose rows start stride elements
// apart; len(dst) >= 4. With ref non-nil (len(ref) == len(dst)) it also
// returns SqDist(ref, dst), added inside the last pass; otherwise 0.
func mulVecTransF64(dst, w, x, ref []float64, stride int) float64 {
	rows, cols := len(x), len(dst)
	if rows > 0 && len(w) < (rows-1)*stride+cols {
		panic(ErrShape)
	}
	acc, r := 0, 0
	for ; rows-r > mulVecTransChunk; r += mulVecTransChunk {
		mulVecTransF64Asm(&dst[0], &w[r*stride], &x[r], mulVecTransChunk, cols, stride, nil, acc)
		acc = 1
	}
	return mulVecTransF64Asm(&dst[0], unsafe.SliceData(w[r*stride:]), unsafe.SliceData(x[r:]), rows-r, cols, stride, unsafe.SliceData(ref), acc)
}

// addScaledOuterF64 is AddScaledOuter on the AVX path: m ← m + s·u·vᵀ
// for the row-major len(u)×len(v) slab m, whose rows start stride
// elements apart; len(v) >= 4.
func addScaledOuterF64(m []float64, s float64, u, v []float64, stride int) {
	cols := len(v)
	n4 := len(u) &^ 3
	var su [4]float64
	i := 0
	for ; i < n4; i += 4 {
		rows := m[i*stride : (i+3)*stride+cols]
		su = [4]float64{s * u[i], s * u[i+1], s * u[i+2], s * u[i+3]}
		outer4F64Asm(&rows[0], stride, &v[0], &su, cols)
	}
	for ; i < len(u); i++ {
		sui := s * u[i]
		if sui == 0 {
			continue
		}
		axpy1F64Asm(&m[i*stride], &v[0], sui, cols)
	}
}
