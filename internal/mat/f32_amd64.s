// AVX2+FMA float32 kernels for the scoring hot path. Only reached when
// the runtime probe in f32_amd64.go set mat.f32SIMD; callers guarantee
// n >= 1 and non-nil pointers. All loads/stores are unaligned (VMOVUPS) —
// Go slices carry no alignment guarantee — and the n%8 tail of every
// kernel is one masked VMASKMOVPS step. Every exit runs VZEROUPPER so
// the surrounding SSE-encoded Go code pays no AVX transition penalty.

#include "textflag.h"

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

// func axpyRowsF32Asm(dst, b *float32, ldb int, x *float32, n, groups int)
//
// For each of groups steps g, with s = x[4g..4g+3] and b's rows
// 4g..4g+3: dst[j] += s[0]·b[4g][j] + s[1]·b[4g+1][j] + s[2]·b[4g+2][j]
// + s[3]·b[4g+3][j] for j in [0, n), n >= 1, as a chain of four FMAs
// per element — the four-row folds of the transposed matvec, each
// scalar broadcast across a YMM lane set.
TEXT ·axpyRowsF32Asm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R12
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $2, DX            // row stride in bytes
	MOVQ x+24(FP), AX
	MOVQ n+32(FP), CX
	MOVQ groups+40(FP), R11
	MOVQ CX, BX
	ANDQ $7, BX
	MOVQ $8, R13
	SUBQ BX, R13
	LEAQ ·f32TailMask(SB), BX
	VMOVUPS (BX)(R13*4), Y9   // first n%8 lanes set
argroup:
	VBROADCASTSS 0(AX), Y1
	VBROADCASTSS 4(AX), Y2
	VBROADCASTSS 8(AX), Y3
	VBROADCASTSS 12(AX), Y4
	LEAQ (SI)(DX*1), R8    // row 1
	LEAQ (SI)(DX*2), R9    // row 2
	LEAQ (R8)(DX*2), R10   // row 3
	XORQ BX, BX            // byte offset into dst and every row
	MOVQ CX, R13
	SHRQ $3, R13           // 8-element blocks
	JZ   artail
arloop:
	VMOVUPS (R12)(BX*1), Y0
	VMOVUPS (SI)(BX*1), Y5
	VMOVUPS (R8)(BX*1), Y6
	VMOVUPS (R9)(BX*1), Y7
	VMOVUPS (R10)(BX*1), Y8
	VFMADD231PS Y5, Y1, Y0
	VFMADD231PS Y6, Y2, Y0
	VFMADD231PS Y7, Y3, Y0
	VFMADD231PS Y8, Y4, Y0
	VMOVUPS Y0, (R12)(BX*1)
	ADDQ $32, BX
	DECQ R13
	JNZ  arloop
artail:
	TESTQ $7, CX
	JZ   arnext
	VMASKMOVPS (R12)(BX*1), Y9, Y0
	VMASKMOVPS (SI)(BX*1), Y9, Y5
	VMASKMOVPS (R8)(BX*1), Y9, Y6
	VMASKMOVPS (R9)(BX*1), Y9, Y7
	VMASKMOVPS (R10)(BX*1), Y9, Y8
	VFMADD231PS Y5, Y1, Y0
	VFMADD231PS Y6, Y2, Y0
	VFMADD231PS Y7, Y3, Y0
	VFMADD231PS Y8, Y4, Y0
	VMASKMOVPS Y0, Y9, (R12)(BX*1)
arnext:
	ADDQ $16, AX           // next four x
	LEAQ (SI)(DX*4), SI    // next four rows
	DECQ R11
	JNZ  argroup
	VZEROUPPER
	RET

// func axpy1F32Asm(dst, b *float32, s float32, n int)
//
// dst[j] += s·b[j] for j in [0, n) — the tail-row form of the
// transposed matvec (rows beyond the last multiple of four).
TEXT ·axpy1F32Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS s+16(FP), Y1
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   a1tail
a1loop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y2
	VFMADD231PS Y2, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  a1loop
a1tail:
	ANDQ $7, CX
	JZ   a1done
	MOVQ $8, DX
	SUBQ CX, DX
	LEAQ ·f32TailMask(SB), AX
	VMOVUPS (AX)(DX*4), Y9
	VMASKMOVPS (DI), Y9, Y0
	VMASKMOVPS (SI), Y9, Y2
	VFMADD231PS Y2, Y1, Y0
	VMASKMOVPS Y0, Y9, (DI)
a1done:
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
