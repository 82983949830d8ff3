//go:build amd64

package mat

// CPU feature probe for the SIMD kernels. Executing a VEX.256
// instruction faults unless the OS saves the YMM state (OSXSAVE set and
// XCR0[2:1] == 11b), even on capable hardware, so every gate starts
// there. f64SIMD needs AVX alone: it gates the kernels that reproduce
// the Go code bit for bit — the float64 kernels (f64_amd64.s) and the
// float32 conversions and rank-1 update below — which use VMULPD/PS,
// VADDPD/PS, VBROADCASTSD/SS, VCVTPD2PS and VCVTPS2PD. f32SIMD also
// needs FMA3 and AVX2, for the fused float32 kernels; the vector
// sigmoid needs the same and then checks itself against math.Exp.

//go:noescape
func dotRowsF32Asm(dst, w *float32, ldw int, x *float32, n, groups int)

//go:noescape
func mulVecTransF32Asm(dst, w, x *float32, rows, cols int, wide, ref *float64) float64

//go:noescape
func outerRowF32Asm(row, v *float32, su float32, n int)

//go:noescape
func narrowF32Asm(dst *float32, src *float64, n int)

//go:noescape
func widenF64Asm(dst *float64, src *float32, n int)

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
	sigmoidSIMD = f32SIMD && sigmoidMatchesExp()
}
