//go:build amd64

package mat

// CPU feature probe for both SIMD kernel sets. Executing a VEX.256
// instruction faults unless the OS saves the YMM state (OSXSAVE set and
// XCR0[2:1] == 11b), even on capable hardware, so both gates start
// there. The float64 kernels (f64_amd64.s) use AVX alone: VMULPD,
// VADDPD and VBROADCASTSD from memory. The float32 kernels also use
// FMA3, and their gate additionally requires AVX2.

//go:noescape
func dotRowsF32Asm(dst, w *float32, ldw int, x *float32, n, groups int)

//go:noescape
func axpyRowsF32Asm(dst, b *float32, ldb int, x *float32, n, groups int)

//go:noescape
func axpy1F32Asm(dst, b *float32, s float32, n int)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0Asm() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return
	}
	xcr0, _ := xgetbv0Asm()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return
	}
	f64SIMD = true
	if maxLeaf < 7 || c&fmaBit == 0 {
		return
	}
	_, b, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	f32SIMD = b&avx2Bit != 0
}
