// AVX2+FMA float32 kernels for the scoring hot path. Only reached when
// the runtime probe in f32_amd64.go set mat.f32SIMD; callers guarantee
// n >= 1 and non-nil pointers. All loads/stores are unaligned (VMOVUPS) —
// Go slices carry no alignment guarantee — and the n%8 tail of every
// kernel but the transposed matvec (which reruns its last eight
// columns) is one masked VMASKMOVPS step. Every exit runs VZEROUPPER so
// the surrounding SSE-encoded Go code pays no AVX transition penalty.

#include "textflag.h"
#include "sqdist_amd64.h"

// WIDEN8(off, y, x, lo, hi) widens the eight float32 columns of y (x is
// its low half) into wide at off(R13) and adds their squared residuals
// against ref at off(R11) to X14, under the lane masks lo and hi.
// Clobbers Y9–Y11.
#define WIDEN8(off, y, x, lo, hi) \
	VCVTPS2PD x, Y11; \
	VMOVUPD Y11, off(R13); \
	SQRESID(off, Y11, lo); \
	VEXTRACTF128 $1, y, X11; \
	VCVTPS2PD X11, Y11; \
	VMOVUPD Y11, off+32(R13); \
	SQRESID(off+32, Y11, hi)

// f32TailMask is eight all-ones lanes followed by eight zero lanes: the
// eight lanes starting at element 8−t select the first t lanes, the
// VMASKMOVPS mask for a t-element tail. Masked-off lanes are neither
// read nor written, so a tail never touches memory past a row's end.
DATA ·f32TailMask+0(SB)/8, $0xffffffffffffffff
DATA ·f32TailMask+8(SB)/8, $0xffffffffffffffff
DATA ·f32TailMask+16(SB)/8, $0xffffffffffffffff
DATA ·f32TailMask+24(SB)/8, $0xffffffffffffffff
DATA ·f32TailMask+32(SB)/8, $0
DATA ·f32TailMask+40(SB)/8, $0
DATA ·f32TailMask+48(SB)/8, $0
DATA ·f32TailMask+56(SB)/8, $0
GLOBL ·f32TailMask(SB), RODATA|NOPTR, $64

// func dotRowsF32Asm(dst, w *float32, ldw int, x *float32, n, groups int)
//
// dst[r] = Σ w[r][i]·x[i] over i in [0, n), n >= 1, for the 4·groups
// rows w, w+ldw, w+2ldw, …, four rows per step. Each row owns two YMM
// accumulators (16 floats per step, the second taking the masked n%8
// tail) reduced by one fixed tree, so a row's result depends only on
// that row and x, never on which rows share a step — a caller may pass
// ldw = 0 to run one row on its own. Eight independent FMA chains hide
// the FMA latency; one x load feeds four rows.
TEXT ·dotRowsF32Asm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R12
	MOVQ w+8(FP), SI
	MOVQ ldw+16(FP), DX
	SHLQ $2, DX            // row stride in bytes
	MOVQ x+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ groups+40(FP), R11
	MOVQ CX, BX
	ANDQ $7, BX
	MOVQ $8, R13
	SUBQ BX, R13
	LEAQ ·f32TailMask(SB), AX
	VMOVUPS (AX)(R13*4), Y10  // first n%8 lanes set
drgroup:
	LEAQ (SI)(DX*1), R8    // row 1
	LEAQ (SI)(DX*2), R9    // row 2
	LEAQ (R8)(DX*2), R10   // row 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ BX, BX            // byte offset into every row and x
	MOVQ CX, R13
	SHRQ $4, R13           // 16-element steps
	JZ   dr8
dr16:
	VMOVUPS (DI)(BX*1), Y8
	VMOVUPS 32(DI)(BX*1), Y9
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VFMADD231PS 32(SI)(BX*1), Y9, Y1
	VFMADD231PS (R8)(BX*1), Y8, Y2
	VFMADD231PS 32(R8)(BX*1), Y9, Y3
	VFMADD231PS (R9)(BX*1), Y8, Y4
	VFMADD231PS 32(R9)(BX*1), Y9, Y5
	VFMADD231PS (R10)(BX*1), Y8, Y6
	VFMADD231PS 32(R10)(BX*1), Y9, Y7
	ADDQ $64, BX
	DECQ R13
	JNZ  dr16
dr8:
	TESTQ $8, CX
	JZ   drtail
	VMOVUPS (DI)(BX*1), Y8
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VFMADD231PS (R8)(BX*1), Y8, Y2
	VFMADD231PS (R9)(BX*1), Y8, Y4
	VFMADD231PS (R10)(BX*1), Y8, Y6
	ADDQ $32, BX
drtail:
	TESTQ $7, CX
	JZ   drreduce
	VMASKMOVPS (DI)(BX*1), Y10, Y8
	VMASKMOVPS (SI)(BX*1), Y10, Y9
	VFMADD231PS Y9, Y8, Y1
	VMASKMOVPS (R8)(BX*1), Y10, Y9
	VFMADD231PS Y9, Y8, Y3
	VMASKMOVPS (R9)(BX*1), Y10, Y9
	VFMADD231PS Y9, Y8, Y5
	VMASKMOVPS (R10)(BX*1), Y10, Y9
	VFMADD231PS Y9, Y8, Y7
drreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VHADDPS Y2, Y0, Y0     // per 128-bit half: row 0 pairs, row 1 pairs
	VHADDPS Y6, Y4, Y4     // rows 2 and 3
	VHADDPS Y4, Y0, Y0     // per half: rows 0..3, lanes 0-3 and 4-7
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VMOVUPS X0, (R12)
	ADDQ $16, R12
	LEAQ (SI)(DX*4), SI    // next four rows
	DECQ R11
	JNZ  drgroup
	VZEROUPPER
	RET

// func mulVecTransF32Asm(dst, w, x *float32, rows, cols int, wide, ref *float64) float64
//
// dst = wᵀ·x for the row-major rows×cols slab w, cols >= 8: the whole
// transposed matvec in one call. Columns run in blocks of 32, then 8,
// and a block of dst stays in registers across all rows. Each element
// runs one FMA chain from +0: acc = fma(x_i, w_i, acc) for the rows in
// order, skipping the rows%4 tail rows whose x_i is ±0 — the chain the
// per-4-row axpy kernels it replaces ran through dst. The cols%8
// leftover columns rerun the last eight columns, which stores them
// again with the same bits.
//
// With ref non-nil it also widens each block into wide (VCVTPS2PD, as
// ConvertVec does) and returns SqDist(ref, wide), the sum built as in
// mulVecTransF64Asm (sqdist_amd64.h); the rerun block masks the columns
// already counted. With ref nil it returns 0 and leaves wide alone.
TEXT ·mulVecTransF32Asm(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), R12
	MOVQ cols+32(FP), CX   // columns left
	MOVQ wide+40(FP), R13
	MOVQ ref+48(FP), R11
	MOVQ CX, DX
	SHLQ $2, DX            // row stride in bytes
	LEAQ (DX)(DX*2), R10   // three rows
	VXORPS X13, X13, X13   // +0, for the zero-skip test
	VXORPD X14, X14, X14   // Σ (ref−wide)²
	LEAQ ·sqMask(SB), AX
	VMOVUPD 64(AX), Y12    // every lane of a block counts
	VMOVUPD 64(AX), Y8
	CMPQ CX, $32
	JB   mtf8
mtf32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, AX            // row 0 of the block
	MOVQ R8, R9
	MOVQ R12, BX
	SHRQ $2, BX            // 4-row groups
	JZ   mtf32tail
mtf32group:
	VBROADCASTSS 0(R9), Y4
	VBROADCASTSS 4(R9), Y5
	VBROADCASTSS 8(R9), Y6
	VBROADCASTSS 12(R9), Y7
	VFMADD231PS 0(AX), Y4, Y0
	VFMADD231PS 32(AX), Y4, Y1
	VFMADD231PS 64(AX), Y4, Y2
	VFMADD231PS 96(AX), Y4, Y3
	VFMADD231PS 0(AX)(DX*1), Y5, Y0
	VFMADD231PS 32(AX)(DX*1), Y5, Y1
	VFMADD231PS 64(AX)(DX*1), Y5, Y2
	VFMADD231PS 96(AX)(DX*1), Y5, Y3
	VFMADD231PS 0(AX)(DX*2), Y6, Y0
	VFMADD231PS 32(AX)(DX*2), Y6, Y1
	VFMADD231PS 64(AX)(DX*2), Y6, Y2
	VFMADD231PS 96(AX)(DX*2), Y6, Y3
	VFMADD231PS 0(AX)(R10*1), Y7, Y0
	VFMADD231PS 32(AX)(R10*1), Y7, Y1
	VFMADD231PS 64(AX)(R10*1), Y7, Y2
	VFMADD231PS 96(AX)(R10*1), Y7, Y3
	LEAQ (AX)(DX*4), AX
	ADDQ $16, R9
	DECQ BX
	JNZ  mtf32group
mtf32tail:
	MOVQ R12, BX
	ANDQ $3, BX
	JZ   mtf32store
mtf32row:
	VMOVSS (R9), X4
	VUCOMISS X13, X4
	JPS  mtf32rowdo        // NaN is not zero
	JEQ  mtf32rownext      // ±0: skipped, as in the Go code
mtf32rowdo:
	VBROADCASTSS (R9), Y4
	VFMADD231PS 0(AX), Y4, Y0
	VFMADD231PS 32(AX), Y4, Y1
	VFMADD231PS 64(AX), Y4, Y2
	VFMADD231PS 96(AX), Y4, Y3
mtf32rownext:
	ADDQ DX, AX
	ADDQ $4, R9
	DECQ BX
	JNZ  mtf32row
mtf32store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	TESTQ R11, R11
	JZ   mtf32next
	WIDEN8(0, Y0, X0, Y12, Y12)
	WIDEN8(64, Y1, X1, Y12, Y12)
	WIDEN8(128, Y2, X2, Y12, Y12)
	WIDEN8(192, Y3, X3, Y12, Y12)
	ADDQ $256, R11
	ADDQ $256, R13
mtf32next:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	CMPQ CX, $32
	JAE  mtf32
mtf8:
	CMPQ CX, $8
	JB   mtfrem
mtf8block:
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ R8, R9
	MOVQ R12, BX
	SHRQ $2, BX
	JZ   mtf8tail
mtf8group:
	VBROADCASTSS 0(R9), Y4
	VFMADD231PS 0(AX), Y4, Y0
	VBROADCASTSS 4(R9), Y5
	VFMADD231PS 0(AX)(DX*1), Y5, Y0
	VBROADCASTSS 8(R9), Y6
	VFMADD231PS 0(AX)(DX*2), Y6, Y0
	VBROADCASTSS 12(R9), Y7
	VFMADD231PS 0(AX)(R10*1), Y7, Y0
	LEAQ (AX)(DX*4), AX
	ADDQ $16, R9
	DECQ BX
	JNZ  mtf8group
mtf8tail:
	MOVQ R12, BX
	ANDQ $3, BX
	JZ   mtf8store
mtf8row:
	VMOVSS (R9), X4
	VUCOMISS X13, X4
	JPS  mtf8rowdo
	JEQ  mtf8rownext
mtf8rowdo:
	VBROADCASTSS (R9), Y4
	VFMADD231PS 0(AX), Y4, Y0
mtf8rownext:
	ADDQ DX, AX
	ADDQ $4, R9
	DECQ BX
	JNZ  mtf8row
mtf8store:
	VMOVUPS Y0, 0(DI)
	TESTQ R11, R11
	JZ   mtf8next
	WIDEN8(0, Y0, X0, Y12, Y8)
	ADDQ $64, R11
	ADDQ $64, R13
mtf8next:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JAE  mtf8block
mtfrem:
	TESTQ CX, CX
	JZ   mtfdone
	// 1–7 columns left: step back so one more block ends at the last
	// column, and count only the new columns' squares.
	LEAQ ·sqMask(SB), AX
	VMOVUPD (AX)(CX*8), Y12   // lanes 0–3 of the last CX
	VMOVUPD 32(AX)(CX*8), Y8  // lanes 4–7
	MOVQ $8, BX
	SUBQ CX, BX
	SHLQ $2, BX            // (8−left)·4 bytes
	SUBQ BX, DI
	SUBQ BX, SI
	TESTQ R11, R11
	JZ   mtfremgo
	SUBQ BX, R11           // (8−left)·8 bytes of ref and wide
	SUBQ BX, R11
	SUBQ BX, R13
	SUBQ BX, R13
mtfremgo:
	MOVQ $8, CX
	JMP  mtf8block
mtfdone:
	VMOVSD X14, ret+56(FP)
	VZEROUPPER
	RET

// func outerRowF32Asm(row, v *float32, su float32, n int)
//
// row[j] += su·v[j] for j in [0, n), n >= 1: one row of the float32
// AddScaledOuter. Unlike the kernels above it is bit-identical to the
// generic Go code — VMULPS then VADDPS, no FMA — eight lanes per step
// and the n%8 tail as one masked step.
TEXT ·outerRowF32Asm(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), DI
	MOVQ v+8(FP), SI
	VBROADCASTSS su+16(FP), Y1
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   ortail
orloop:
	VMULPS (SI), Y1, Y2
	VMOVUPS (DI), Y0
	VADDPS Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  orloop
ortail:
	ANDQ $7, CX
	JZ   ordone
	MOVQ $8, DX
	SUBQ CX, DX
	LEAQ ·f32TailMask(SB), AX
	VMOVUPS (AX)(DX*4), Y9
	VMASKMOVPS (SI), Y9, Y2
	VMULPS Y2, Y1, Y2
	VMASKMOVPS (DI), Y9, Y0
	VADDPS Y2, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)
ordone:
	VZEROUPPER
	RET

// func narrowF32Asm(dst *float32, src *float64, n int)
//
// dst[i] = float32(src[i]) for i in [0, n), n a positive multiple of
// four: VCVTPD2PS rounds each lane under MXCSR exactly as the scalar
// conversion (CVTSD2SS) does, NaNs and infinities included.
TEXT ·narrowF32Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
nrloop:
	VCVTPD2PSY (SI), X0
	VMOVUPS X0, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  nrloop
	VZEROUPPER
	RET

// func widenF64Asm(dst *float64, src *float32, n int)
//
// dst[i] = float64(src[i]) for i in [0, n), n a positive multiple of
// four: VCVTPS2PD is exact, like the scalar CVTSS2SD.
TEXT ·widenF64Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
wdloop:
	VCVTPS2PD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  wdloop
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0Asm() (eax, edx uint32)
TEXT ·xgetbv0Asm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
