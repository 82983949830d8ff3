package mat

import "unsafe"

// Float64 SIMD path. The generic entry points MulVec, MulVecTrans, Dot,
// AddScaledOuter, MulBatchRows and MulBatchTrans dispatch here when
// their element type is 8 bytes wide (float64, or a type defined over
// it) and the CPU has AVX (f64_amd64.s). unsafe.Sizeof of a type
// parameter folds to a constant in each shape instantiation, so the
// float32 instantiations compile the test away and the float64 ones
// reach these functions through unsafe.Slice views, with no interface
// boxing and no allocation.
//
// Unlike the float32 kernels, these are bit-identical to the generic Go
// kernels: no FMA, and every lane runs one of the Go code's own add
// chains in the Go code's order. A dot product keeps dotKernel's four
// strided accumulators as the four lanes of one YMM register, so the
// kernel cannot split a row's chain any further; it gains by running
// four weight rows' chains side by side instead, sharing each x load.
// The n%4 tail, the final (s0+s1)+(s2+s3) reduction and the zero-skip
// on tail rows stay in Go below, written exactly as in the generic code.

// f64SIMD reports whether the AVX float64 kernels are usable on this
// CPU. Set once at init by the amd64 feature probe; never true
// elsewhere. Tests toggle it to compare the kernels with the Go code.
var f64SIMD bool

// F64SIMD reports whether the float64 kernels are running the
// hand-written AVX path on this machine (amd64 only). Results are the
// same bits either way; benchmarks record it so timings are attributable.
func F64SIMD() bool { return f64SIMD }

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

// finishDot completes dotKernel from its strided accumulators s: the
// tail a·b (the last len(a) < 4 elements) folds into s0, then the
// pairwise reduction.
func finishDot(s *[4]float64, a, b []float64) float64 {
	s0 := s[0]
	for i, v := range a {
		s0 += float64(v * b[i])
	}
	return (s0 + s[1]) + (s[2] + s[3])
}

// dotF64 is dotKernel(a, b) on the AVX path; len(a) >= 4, len(b) >= len(a).
func dotF64(a, b []float64) float64 {
	n4 := len(a) &^ 3
	var s [4]float64
	dot1F64Asm(&a[0], &b[0], n4, &s)
	return finishDot(&s, a[n4:], b[n4:len(a)])
}

// mulVecF64 sets dst[r] = dotKernel(row r of w, x) for the row-major
// len(dst)×len(x) slab w, four rows per kernel call; len(x) >= 4.
func mulVecF64(dst, w, x []float64) {
	cols := len(x)
	n4 := cols &^ 3
	var s [4][4]float64
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		rows := w[r*cols : (r+4)*cols]
		dot4F64Asm(&rows[0], cols, &x[0], n4, &s)
		for k := range s {
			dst[r+k] = finishDot(&s[k], rows[k*cols+n4:(k+1)*cols], x[n4:])
		}
	}
	for ; r < len(dst); r++ {
		dst[r] = dotF64(w[r*cols:(r+1)*cols], x)
	}
}

// mulVecTransF64 is MulVecTrans on the AVX path: dst = wᵀ·x for the
// row-major len(x)×len(dst) slab w; len(dst) >= 4.
func mulVecTransF64(dst, w, x []float64) {
	clear(dst)
	cols := len(dst)
	n4 := len(x) &^ 3
	var s [4]float64
	i := 0
	for ; i < n4; i += 4 {
		rows := w[i*cols : (i+4)*cols]
		s = [4]float64{x[i], x[i+1], x[i+2], x[i+3]}
		axpy4F64Asm(&dst[0], &rows[0], cols, &s, cols)
	}
	for ; i < len(x); i++ {
		if x[i] == 0 {
			continue
		}
		axpy1F64Asm(&dst[0], &w[i*cols], x[i], cols)
	}
}

// addScaledOuterF64 is AddScaledOuter on the AVX path: m ← m + s·u·vᵀ
// for the row-major len(u)×len(v) slab m; len(v) >= 4.
func addScaledOuterF64(m []float64, s float64, u, v []float64) {
	cols := len(v)
	n4 := len(u) &^ 3
	var su [4]float64
	i := 0
	for ; i < n4; i += 4 {
		rows := m[i*cols : (i+4)*cols]
		su = [4]float64{s * u[i], s * u[i+1], s * u[i+2], s * u[i+3]}
		outer4F64Asm(&rows[0], cols, &v[0], &su, cols)
	}
	for ; i < len(u); i++ {
		sui := s * u[i]
		if sui == 0 {
			continue
		}
		axpy1F64Asm(&m[i*cols], &v[0], sui, cols)
	}
}
