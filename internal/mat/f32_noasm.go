//go:build !amd64

package mat

// Stubs for the amd64-only SIMD kernels. f32SIMD is never set on other
// architectures, so these are unreachable; they exist only to keep the
// dispatchers in f32.go compiling on every GOARCH (the ROADMAP's ARM
// cross-build included).

func dotRowsF32Asm(dst, w *float32, ldw int, x *float32, n, groups int) {
	panic("mat: dotRowsF32Asm called without SIMD support")
}

func mulVecTransF32Asm(dst, w, x *float32, rows, cols int, wide, ref *float64) float64 {
	panic("mat: mulVecTransF32Asm called without SIMD support")
}

func narrowF32Asm(dst *float32, src *float64, n int) {
	panic("mat: narrowF32Asm called without SIMD support")
}

func widenF64Asm(dst *float64, src *float32, n int) {
	panic("mat: widenF64Asm called without SIMD support")
}

func outerRowF32Asm(row, v *float32, su float32, n int) {
	panic("mat: outerRowF32Asm called without SIMD support")
}
