// AVX float64 kernels for the deployed scoring and RLS path. Only
// reached when the runtime probe in f32_amd64.go set mat.f64SIMD;
// callers guarantee non-nil pointers and the lengths each kernel names.
//
// Every kernel is bit-identical to the generic Go kernel it replaces:
// VMULPD rounds each product and VADDPD each sum exactly as MULSD/ADDSD
// do, no FMA is emitted, and every lane runs the same add chain, in the
// same order, as one scalar accumulator or one output element of the Go
// code. Throughput comes from running independent chains side by side
// (four weight rows, or four output columns), never from re-associating
// one. All loads and stores are unaligned; every exit runs VZEROUPPER.

#include "textflag.h"

// func dot4F64Asm(w *float64, ldw int, x *float64, n int, acc *[4][4]float64)
//
// For the four rows w, w+ldw, w+2ldw, w+3ldw and n a positive multiple
// of four, acc[r][k] = Σ w[r][i+k]·x[i+k] over i = 0, 4, …, n−4, summed
// in that order: lane k of row r's accumulator is dotKernel's s_k. One
// x load feeds all four rows.
TEXT ·dot4F64Asm(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ ldw+8(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R9    // row 1
	LEAQ (SI)(DX*2), R10   // row 2
	LEAQ (R10)(DX*1), R11  // row 3
	MOVQ x+16(FP), DI
	MOVQ n+24(FP), CX
	SHRQ $2, CX            // 4-element steps
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
d4loop:
	VMOVUPD (DI), Y4
	VMULPD (SI), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD (R9), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD (R10), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD (R11), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  d4loop
	MOVQ acc+32(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET

// func dot1F64Asm(a, b *float64, n int, acc *[4]float64)
//
// The single-row form of dot4F64Asm: acc[k] = Σ a[i+k]·b[i+k] over
// i = 0, 4, …, n−4 for n a positive multiple of four.
TEXT ·dot1F64Asm(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	VXORPD Y0, Y0, Y0
d1loop:
	VMOVUPD (DI), Y4
	VMULPD (SI), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  d1loop
	MOVQ acc+24(FP), AX
	VMOVUPD Y0, (AX)
	VZEROUPPER
	RET

// func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int)
//
// dst[j] += ((s[0]·b[j] + s[1]·b[ldb+j]) + s[2]·b[2ldb+j]) + s[3]·b[3ldb+j]
// for j in [0, n), n >= 1: MulVecTrans's four-row fold, in Go's
// evaluation order, four columns per step and a scalar column tail.
TEXT ·axpy4F64Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $3, DX
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R10)(DX*1), R11
	MOVQ s+24(FP), AX
	VBROADCASTSD 0(AX), Y1
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y3
	VBROADCASTSD 24(AX), Y4
	MOVQ n+32(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   a4tail
a4loop:
	VMULPD (SI), Y1, Y5
	VMULPD (R9), Y2, Y6
	VADDPD Y6, Y5, Y5
	VMULPD (R10), Y3, Y6
	VADDPD Y6, Y5, Y5
	VMULPD (R11), Y4, Y6
	VADDPD Y6, Y5, Y5
	VMOVUPD (DI), Y0
	VADDPD Y5, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ DX
	JNZ  a4loop
a4tail:
	ANDQ $3, CX
	JZ   a4done
a4tailloop:
	VMULSD (SI), X1, X5
	VMULSD (R9), X2, X6
	VADDSD X6, X5, X5
	VMULSD (R10), X3, X6
	VADDSD X6, X5, X5
	VMULSD (R11), X4, X6
	VADDSD X6, X5, X5
	VMOVSD (DI), X0
	VADDSD X5, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  a4tailloop
a4done:
	VZEROUPPER
	RET

// func axpy1F64Asm(dst, b *float64, s float64, n int)
//
// dst[j] += s·b[j] for j in [0, n), n >= 1: a single-row tail of
// MulVecTrans or AddScaledOuter.
TEXT ·axpy1F64Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSD s+16(FP), Y1
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   a1tail
a1loop:
	VMULPD (SI), Y1, Y2
	VMOVUPD (DI), Y0
	VADDPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  a1loop
a1tail:
	ANDQ $3, CX
	JZ   a1done
a1tailloop:
	VMULSD (SI), X1, X2
	VMOVSD (DI), X0
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ CX
	JNZ  a1tailloop
a1done:
	VZEROUPPER
	RET

// func outer4F64Asm(m *float64, ldm int, v *float64, s *[4]float64, n int)
//
// m[r][j] += s[r]·v[j] for the four rows m, m+ldm, m+2ldm, m+3ldm and
// j in [0, n), n >= 1: AddScaledOuter's four-row block. One v load
// feeds all four rows.
TEXT ·outer4F64Asm(SB), NOSPLIT, $0-40
	MOVQ m+0(FP), DI
	MOVQ ldm+8(FP), DX
	SHLQ $3, DX
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R10)(DX*1), R11
	MOVQ v+16(FP), SI
	MOVQ s+24(FP), AX
	VBROADCASTSD 0(AX), Y1
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y3
	VBROADCASTSD 24(AX), Y4
	MOVQ n+32(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   o4tail
o4loop:
	VMOVUPD (SI), Y0
	VMULPD Y0, Y1, Y5
	VADDPD (DI), Y5, Y5
	VMOVUPD Y5, (DI)
	VMULPD Y0, Y2, Y6
	VADDPD (R9), Y6, Y6
	VMOVUPD Y6, (R9)
	VMULPD Y0, Y3, Y7
	VADDPD (R10), Y7, Y7
	VMOVUPD Y7, (R10)
	VMULPD Y0, Y4, Y8
	VADDPD (R11), Y8, Y8
	VMOVUPD Y8, (R11)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ DX
	JNZ  o4loop
o4tail:
	ANDQ $3, CX
	JZ   o4done
o4tailloop:
	VMOVSD (SI), X0
	VMULSD X0, X1, X5
	VADDSD (DI), X5, X5
	VMOVSD X5, (DI)
	VMULSD X0, X2, X6
	VADDSD (R9), X6, X6
	VMOVSD X6, (R9)
	VMULSD X0, X3, X7
	VADDSD (R10), X7, X7
	VMOVSD X7, (R10)
	VMULSD X0, X4, X8
	VADDSD (R11), X8, X8
	VMOVSD X8, (R11)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  o4tailloop
o4done:
	VZEROUPPER
	RET
