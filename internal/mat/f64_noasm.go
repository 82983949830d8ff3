//go:build !amd64

package mat

// Stubs for the amd64-only float64 kernels. f64SIMD and sigmoidSIMD are
// never set on other architectures, so these are unreachable; they keep
// the dispatchers in f64.go and sigmoid.go compiling on every GOARCH.

func mulVecF64Asm(dst, w, x *float64, rows, cols, stride int) {
	panic("mat: mulVecF64Asm called without SIMD support")
}

func mulVecTransF64Asm(dst, w, x *float64, rows, cols, stride int, ref *float64, acc int) float64 {
	panic("mat: mulVecTransF64Asm called without SIMD support")
}

func axpy1F64Asm(dst, b *float64, s float64, n int) {
	panic("mat: axpy1F64Asm called without SIMD support")
}

func outer4F64Asm(m *float64, ldm int, v *float64, s *[4]float64, n int) {
	panic("mat: outer4F64Asm called without SIMD support")
}

func runningMeanL1F64Asm(mean, x, ref *float64, n int, fn, inv float64) float64 {
	panic("mat: runningMeanL1F64Asm called without SIMD support")
}

func sigmoidF64Asm(dst, bias *float64, groups int) int {
	panic("mat: sigmoidF64Asm called without SIMD support")
}

func sigmoidF32Asm(dst, bias *float32, groups int) int {
	panic("mat: sigmoidF32Asm called without SIMD support")
}
