//go:build !amd64

package mat

// Stubs for the amd64-only SIMD kernels. f32SIMD is never set on other
// architectures, so these are unreachable; they exist only to keep the
// dispatchers in f32.go compiling on every GOARCH (the ROADMAP's ARM
// cross-build included).

func dotRowsF32Asm(dst, w *float32, ldw int, x *float32, n, groups int) {
	panic("mat: dotRowsF32Asm called without SIMD support")
}

func axpyRowsF32Asm(dst, b *float32, ldb int, x *float32, n, groups int) {
	panic("mat: axpyRowsF32Asm called without SIMD support")
}

func axpy1F32Asm(dst, b *float32, s float32, n int) {
	panic("mat: axpy1F32Asm called without SIMD support")
}
