//go:build !amd64

package mat

// Stubs for the amd64-only float64 kernels. f64SIMD is never set on
// other architectures, so these are unreachable; they keep the
// dispatchers in f64.go compiling on every GOARCH.

func dot4F64Asm(w *float64, ldw int, x *float64, n int, acc *[4][4]float64) {
	panic("mat: dot4F64Asm called without SIMD support")
}

func dot1F64Asm(a, b *float64, n int, acc *[4]float64) {
	panic("mat: dot1F64Asm called without SIMD support")
}

func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int) {
	panic("mat: axpy4F64Asm called without SIMD support")
}

func axpy1F64Asm(dst, b *float64, s float64, n int) {
	panic("mat: axpy1F64Asm called without SIMD support")
}

func outer4F64Asm(m *float64, ldm int, v *float64, s *[4]float64, n int) {
	panic("mat: outer4F64Asm called without SIMD support")
}
