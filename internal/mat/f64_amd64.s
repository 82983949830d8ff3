// AVX float64 kernels for the deployed scoring and RLS path. The linear
// algebra kernels are only reached when the runtime probe in
// f32_amd64.go set mat.f64SIMD, the sigmoid kernels at the end only
// when it set mat.sigmoidSIMD; callers guarantee non-nil pointers and
// the lengths each kernel names.
//
// Every kernel is bit-identical to the Go code it replaces. In the
// linear algebra kernels VMULPD rounds each product and VADDPD each sum
// exactly as MULSD/ADDSD do, no FMA is emitted, and every lane runs the
// same add chain, in the same order, as one scalar accumulator or one
// output element of the Go code. Throughput comes from running
// independent chains side by side (four weight rows, or up to 16
// output columns), never from re-associating one. The sigmoid kernels
// use FMA exactly where math.Exp does (see there). All loads and stores
// are unaligned; every exit runs VZEROUPPER.

#include "textflag.h"
#include "sqdist_amd64.h"

// MVTRANSPOSE turns four row accumulators a0..a3, each holding
// dotKernel's s_0..s_3 of one row, into a_k = s_k of the four rows.
// Clobbers t0..t3.
#define MVTRANSPOSE(a0, a1, a2, a3, t0, t1, t2, t3) \
	VUNPCKLPD a1, a0, t0; \
	VUNPCKHPD a1, a0, t1; \
	VUNPCKLPD a3, a2, t2; \
	VUNPCKHPD a3, a2, t3; \
	VPERM2F128 $0x20, t2, t0, a0; \
	VPERM2F128 $0x20, t3, t1, a1; \
	VPERM2F128 $0x31, t2, t0, a2; \
	VPERM2F128 $0x31, t3, t1, a3

// MVREDUCE is dotKernel's (s_0+s_1)+(s_2+s_3) for four rows, into a0.
#define MVREDUCE(a0, a1, a2, a3) \
	VADDPD a1, a0, a0; \
	VADDPD a3, a2, a2; \
	VADDPD a2, a0, a0

// MVSTEP(row, acc) adds x·row for the four elements at byte offset AX
// to acc; x is in Y8. Clobbers Y9.
#define MVSTEP(row, acc) \
	VMULPD (row)(AX*1), Y8, Y9; \
	VADDPD Y9, acc, acc

// func mulVecF64Asm(dst, w, x *float64, rows, cols, stride int)
//
// dst[r] = dotKernel(row r of w, x) for the row-major rows×cols slab w,
// whose rows start stride elements apart, cols >= 4: the whole matvec
// in one call. Rows run side by side, each keeping dotKernel's four
// strided accumulators s_k as the lanes of one YMM register, and one x
// load feeds them all. After the 4-element
// steps each set of four rows is transposed so that S_k holds s_k of
// all four; the cols%4 tail elements then fold into S_0 in order, and
// (S_0+S_1)+(S_2+S_3) is dotKernel's reduction for four rows at once.
//
// Each s_k is a serial add chain, so a step takes an add's latency
// however few rows share it: a group of one to three rows costs as much
// as a group of four. Rows therefore go in groups of four, except that
// the rows%4 leftover rows join the last four in one group of five to
// seven whose step multiplies only its own rows, so no row is computed
// twice. A matrix of under four rows runs as one group of four whose
// absent rows alias row 0, free by the same argument, and are never
// stored. In the wide group the absent rows alias row 4 for the tail
// only, and their accumulators stay zero.
TEXT ·mulVecF64Asm(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DI
	MOVQ rows+24(FP), R12  // rows left
	MOVQ cols+32(FP), R13
	MOVQ stride+40(FP), DX
	SHLQ $3, DX            // row stride in bytes
	CMPQ R12, $4
	JAE  mvgroup
	MOVQ SI, R9            // under four rows: absent rows alias row 0
	MOVQ SI, R10
	MOVQ SI, R11
	CMPQ R12, $2
	JB   mvrows
	LEAQ (SI)(DX*1), R9
	JE   mvrows
	LEAQ (SI)(DX*2), R10
	JMP  mvrows
mvgroup:
	CMPQ R12, $8
	JAE  mvfour
	CMPQ R12, $4
	JA   mvwide
mvfour:
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
mvrows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX            // byte offset into every row and x
	MOVQ R13, BX
	SHRQ $2, BX            // 4-element steps
mvloop4:
	VMOVUPD (DI)(AX*1), Y8
	MVSTEP(SI, Y0)
	MVSTEP(R9, Y1)
	MVSTEP(R10, Y2)
	MVSTEP(R11, Y3)
	ADDQ $32, AX
	DECQ BX
	JNZ  mvloop4
	MVTRANSPOSE(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	MOVQ R13, BX
	ANDQ $3, BX
	JZ   mvreduce
mvtail:
	VMOVSD (SI)(AX*1), X8
	VMOVHPD (R9)(AX*1), X8, X8
	VMOVSD (R10)(AX*1), X9
	VMOVHPD (R11)(AX*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	VBROADCASTSD (DI)(AX*1), Y9
	VMULPD Y9, Y8, Y8
	VADDPD Y8, Y0, Y0
	ADDQ $8, AX
	DECQ BX
	JNZ  mvtail
mvreduce:
	MVREDUCE(Y0, Y1, Y2, Y3)
	CMPQ R12, $4
	JB   mvlast
	VMOVUPD Y0, (R8)
	LEAQ (SI)(DX*4), SI
	ADDQ $32, R8
	SUBQ $4, R12
	JNZ  mvgroup
	JMP  mvdone
mvlast:
	// Store the R12 = 1–3 rows of Y0.
	CMPQ R12, $2
	JB   mvlast1
	VMOVUPD X0, (R8)
	JE   mvdone
	VEXTRACTF128 $1, Y0, X1
	VMOVSD X1, 16(R8)
	JMP  mvdone
mvlast1:
	VMOVSD X0, (R8)
	JMP  mvdone

mvwide:
	// Five to seven rows left: rows 0–3 in Y0–Y3 and rows 4–6 in Y4–Y6,
	// with row 7's Y7 at zero. Rows 5 and 6 alias row 4 where absent.
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	LEAQ (SI)(DX*4), CX    // row 4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	MOVQ R13, BX
	SHRQ $2, BX
	CMPQ R12, $6           // MOVQ and LEAQ leave the flags alone
	MOVQ CX, R12           // row 5
	MOVQ CX, R13           // row 6
	JB   mvloop5
	LEAQ (CX)(DX*1), R12
	JE   mvloop6
	LEAQ (CX)(DX*2), R13
mvloop7:
	VMOVUPD (DI)(AX*1), Y8
	MVSTEP(SI, Y0)
	MVSTEP(R9, Y1)
	MVSTEP(R10, Y2)
	MVSTEP(R11, Y3)
	MVSTEP(CX, Y4)
	MVSTEP(R12, Y5)
	MVSTEP(R13, Y6)
	ADDQ $32, AX
	DECQ BX
	JNZ  mvloop7
	JMP  mvwidefinish
mvloop6:
	VMOVUPD (DI)(AX*1), Y8
	MVSTEP(SI, Y0)
	MVSTEP(R9, Y1)
	MVSTEP(R10, Y2)
	MVSTEP(R11, Y3)
	MVSTEP(CX, Y4)
	MVSTEP(R12, Y5)
	ADDQ $32, AX
	DECQ BX
	JNZ  mvloop6
	JMP  mvwidefinish
mvloop5:
	VMOVUPD (DI)(AX*1), Y8
	MVSTEP(SI, Y0)
	MVSTEP(R9, Y1)
	MVSTEP(R10, Y2)
	MVSTEP(R11, Y3)
	MVSTEP(CX, Y4)
	ADDQ $32, AX
	DECQ BX
	JNZ  mvloop5
mvwidefinish:
	MVTRANSPOSE(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	MVTRANSPOSE(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	MOVQ cols+32(FP), BX
	ANDQ $3, BX
	JZ   mvwidereduce
mvwidetail:
	VMOVSD (SI)(AX*1), X8
	VMOVHPD (R9)(AX*1), X8, X8
	VMOVSD (R10)(AX*1), X9
	VMOVHPD (R11)(AX*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	VMOVSD (CX)(AX*1), X9
	VMOVHPD (R12)(AX*1), X9, X9
	VMOVSD (R13)(AX*1), X10 // row 7's lane loads +0
	VINSERTF128 $1, X10, Y9, Y9
	VBROADCASTSD (DI)(AX*1), Y10
	VMULPD Y10, Y8, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y10, Y9, Y9
	VADDPD Y9, Y4, Y4
	ADDQ $8, AX
	DECQ BX
	JNZ  mvwidetail
mvwidereduce:
	MVREDUCE(Y0, Y1, Y2, Y3)
	MVREDUCE(Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R8)
	ADDQ $32, R8
	VMOVAPD Y4, Y0
	MOVQ rows+24(FP), R12
	ANDQ $3, R12           // the rows past the first four
	JMP  mvlast
mvdone:
	VZEROUPPER
	RET

// sqMask is eight zero float64 lanes then eight all-ones lanes: lane i
// of a load from element j on is set exactly when j+i >= 8. The
// transposed kernels mask a rerun block's squared residuals with it, so
// the columns already counted add +0 (sqdist_amd64.h).
DATA ·sqMask+0(SB)/8, $0
DATA ·sqMask+8(SB)/8, $0
DATA ·sqMask+16(SB)/8, $0
DATA ·sqMask+24(SB)/8, $0
DATA ·sqMask+32(SB)/8, $0
DATA ·sqMask+40(SB)/8, $0
DATA ·sqMask+48(SB)/8, $0
DATA ·sqMask+56(SB)/8, $0
DATA ·sqMask+64(SB)/8, $0xffffffffffffffff
DATA ·sqMask+72(SB)/8, $0xffffffffffffffff
DATA ·sqMask+80(SB)/8, $0xffffffffffffffff
DATA ·sqMask+88(SB)/8, $0xffffffffffffffff
DATA ·sqMask+96(SB)/8, $0xffffffffffffffff
DATA ·sqMask+104(SB)/8, $0xffffffffffffffff
DATA ·sqMask+112(SB)/8, $0xffffffffffffffff
DATA ·sqMask+120(SB)/8, $0xffffffffffffffff
GLOBL ·sqMask(SB), RODATA|NOPTR, $128

// func mulVecTransF64Asm(dst, w, x *float64, rows, cols, stride int, ref *float64, acc int) float64
//
// dst = wᵀ·x for the row-major rows×cols slab w, whose rows start
// stride elements apart, cols >= 4, or with
// acc = 1, dst += wᵀ·x continuing the chains a previous call left in
// dst. Columns run in blocks of 16, then 4, and a block of dst stays in
// registers across all rows, so every β element is read once and dst
// written once. Each element runs MulVecTrans's add chain:
// acc + (((x0·r0 + x1·r1) + x2·r2) + x3·r3) per 4-row group, then
// acc + xi·ri for each of the rows%4 tail rows whose xi is not ±0. The
// cols%4 leftover columns rerun the last four columns: a column's result
// depends only on that column, x and its starting value, which with
// acc = 1 is the one saved in Y15 on entry, so the columns it
// recomputes are stored again with the same bits.
//
// With ref non-nil it also returns Σ (ref_j − dst_j)² added in column
// order, SqDist(ref, dst): each block's squares join the serial sum
// while the next block's β loads are in flight. The rerun block masks
// the squares of the columns already counted to +0, which leaves the
// sum's bits unchanged (it is never −0). With ref nil it returns 0.
TEXT ·mulVecTransF64Asm(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), R12
	MOVQ cols+32(FP), CX   // columns left
	MOVQ stride+40(FP), DX
	MOVQ ref+48(FP), R11
	MOVQ acc+56(FP), R13   // 0: blocks start at +0; 1: from dst
	SHLQ $3, DX            // row stride in bytes
	LEAQ (DX)(DX*2), R10   // three rows
	TESTQ R13, R13
	JZ   mtinit
	VMOVUPD -32(DI)(CX*8), Y15 // the last four columns' starting values (dst ends at cols, not at the stride)
mtinit:
	VXORPD X13, X13, X13   // +0, for the zero-skip test
	VXORPD X14, X14, X14   // Σ (ref−dst)²
	LEAQ ·sqMask(SB), AX
	VMOVUPD 64(AX), Y12    // every lane of a block counts
	CMPQ CX, $16
	JB   mt4
mt16:
	TESTQ R13, R13
	JNZ  mt16load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP  mt16rows
mt16load:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
mt16rows:
	MOVQ SI, AX            // row 0 of the block
	MOVQ R8, R9
	MOVQ R12, BX
	SHRQ $2, BX            // 4-row groups
	JZ   mt16tail
mt16group:
	VBROADCASTSD 0(R9), Y8
	VMULPD 0(AX), Y8, Y4
	VMULPD 32(AX), Y8, Y5
	VMULPD 64(AX), Y8, Y6
	VMULPD 96(AX), Y8, Y7
	VBROADCASTSD 8(R9), Y8
	VMULPD 0(AX)(DX*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 32(AX)(DX*1), Y8, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 64(AX)(DX*1), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 96(AX)(DX*1), Y8, Y9
	VADDPD Y9, Y7, Y7
	VBROADCASTSD 16(R9), Y8
	VMULPD 0(AX)(DX*2), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 32(AX)(DX*2), Y8, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 64(AX)(DX*2), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 96(AX)(DX*2), Y8, Y9
	VADDPD Y9, Y7, Y7
	VBROADCASTSD 24(R9), Y8
	VMULPD 0(AX)(R10*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 32(AX)(R10*1), Y8, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 64(AX)(R10*1), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 96(AX)(R10*1), Y8, Y9
	VADDPD Y9, Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	LEAQ (AX)(DX*4), AX
	ADDQ $32, R9
	DECQ BX
	JNZ  mt16group
mt16tail:
	MOVQ R12, BX
	ANDQ $3, BX
	JZ   mt16store
mt16row:
	VMOVSD (R9), X8
	VUCOMISD X13, X8
	JPS  mt16rowdo         // NaN is not zero
	JEQ  mt16rownext       // ±0: skipped, as in the Go code
mt16rowdo:
	VBROADCASTSD (R9), Y8
	VMULPD 0(AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(AX), Y8, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(AX), Y8, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 96(AX), Y8, Y9
	VADDPD Y9, Y3, Y3
mt16rownext:
	ADDQ DX, AX
	ADDQ $8, R9
	DECQ BX
	JNZ  mt16row
mt16store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	TESTQ R11, R11
	JZ   mt16next
	SQRESID(0, Y0, Y12)
	SQRESID(32, Y1, Y12)
	SQRESID(64, Y2, Y12)
	SQRESID(96, Y3, Y12)
	ADDQ $128, R11
mt16next:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE  mt16
mt4:
	CMPQ CX, $4
	JB   mtrem
mt4block:
	CMPQ R13, $1
	JB   mt4zero
	JA   mt4saved
	VMOVUPD 0(DI), Y0
	JMP  mt4rows
mt4saved:
	VMOVAPD Y15, Y0
	JMP  mt4rows
mt4zero:
	VXORPD Y0, Y0, Y0
mt4rows:
	MOVQ SI, AX
	MOVQ R8, R9
	MOVQ R12, BX
	SHRQ $2, BX
	JZ   mt4tail
mt4group:
	VBROADCASTSD 0(R9), Y8
	VMULPD 0(AX), Y8, Y4
	VBROADCASTSD 8(R9), Y8
	VMULPD 0(AX)(DX*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VBROADCASTSD 16(R9), Y8
	VMULPD 0(AX)(DX*2), Y8, Y9
	VADDPD Y9, Y4, Y4
	VBROADCASTSD 24(R9), Y8
	VMULPD 0(AX)(R10*1), Y8, Y9
	VADDPD Y9, Y4, Y4
	VADDPD Y4, Y0, Y0
	LEAQ (AX)(DX*4), AX
	ADDQ $32, R9
	DECQ BX
	JNZ  mt4group
mt4tail:
	MOVQ R12, BX
	ANDQ $3, BX
	JZ   mt4store
mt4row:
	VMOVSD (R9), X8
	VUCOMISD X13, X8
	JPS  mt4rowdo
	JEQ  mt4rownext
mt4rowdo:
	VBROADCASTSD (R9), Y8
	VMULPD 0(AX), Y8, Y9
	VADDPD Y9, Y0, Y0
mt4rownext:
	ADDQ DX, AX
	ADDQ $8, R9
	DECQ BX
	JNZ  mt4row
mt4store:
	VMOVUPD Y0, 0(DI)
	TESTQ R11, R11
	JZ   mt4next
	SQRESID(0, Y0, Y12)
	ADDQ $32, R11
mt4next:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	CMPQ CX, $4
	JAE  mt4block
mtrem:
	TESTQ CX, CX
	JZ   mtdone
	// 1–3 columns left: step back so one more block ends at the last
	// column, and count only the new columns' squares.
	LEAQ ·sqMask+32(SB), AX
	VMOVUPD (AX)(CX*8), Y12   // the last CX lanes
	MOVQ $4, BX
	SUBQ CX, BX
	SHLQ $3, BX            // (4−left)·8 bytes
	SUBQ BX, DI
	SUBQ BX, SI
	TESTQ R11, R11
	JZ   mtremgo
	SUBQ BX, R11
mtremgo:
	ADDQ R13, R13          // 1 → 2: start from the saved values
	MOVQ $4, CX
	JMP  mt4block
mtdone:
	VMOVSD X14, ret+64(FP)
	VZEROUPPER
	RET

// func axpy1F64Asm(dst, b *float64, s float64, n int)
//
// dst[j] += s·b[j] for j in [0, n), n >= 1: a single-row tail of
// AddScaledOuter.
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

// func runningMeanL1F64Asm(mean, x, ref *float64, n int, fn, inv float64) float64
//
// mean[i] = (mean[i]·fn + x[i])·inv for i in [0, n), returning
// Σ |mean[i] − ref[i]| over the updated elements, added in element
// order: RunningMeanUpdateL1Dist's loop. Four elements are updated per
// step with VMULPD, VADDPD, VMULPD (no FMA, each product and sum
// rounded as MULSD/ADDSD round them) and stored; their distances to ref
// (VSUBPD, then VANDPD clearing the sign as math.Abs does) join the
// serial sum one lane at a time, so the n%4 scalar tail continues the
// same chain.
TEXT ·runningMeanL1F64Asm(SB), NOSPLIT, $0-56
	MOVQ mean+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ref+16(FP), R11
	MOVQ n+24(FP), CX
	VBROADCASTSD fn+32(FP), Y1
	VBROADCASTSD inv+40(FP), Y2
	VMOVUPD sigConst<>+480(SB), Y3 // |x| mask
	VXORPD X14, X14, X14   // Σ |mean − ref|
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   rmtail
rmloop:
	VMULPD (DI), Y1, Y0
	VADDPD (SI), Y0, Y0
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	VSUBPD (R11), Y0, Y9
	VANDPD Y3, Y9, Y9
	SUMLANES_Y9
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R11
	DECQ BX
	JNZ  rmloop
rmtail:
	ANDQ $3, CX
	JZ   rmdone
rmtailloop:
	VMULSD (DI), X1, X0
	VADDSD (SI), X0, X0
	VMULSD X2, X0, X0
	VMOVSD X0, (DI)
	VSUBSD (R11), X0, X9
	VANDPD X3, X9, X9
	VADDSD X9, X14, X14
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R11
	DECQ CX
	JNZ  rmtailloop
rmdone:
	VMOVSD X14, ret+48(FP)
	VZEROUPPER
	RET

// The vector sigmoid: σ(z+b) = 1/(1+exp(−(z+b))) four lanes at a time,
// bit-identical to the Go expression 1 / (1 + math.Exp(−(z+b))) on every
// host that runs it. math.Exp on amd64 is the assembly archExp, which
// takes an FMA path whenever the CPU has AVX and FMA — always true where
// these kernels are enabled (the AVX2+FMA gate in f32_amd64.go) — and
// the kernel below is that path with every scalar instruction replaced
// by its 4-lane twin, in the same order and with the same constants
// (the literals are copied from math/exp_amd64.s, so the assembler
// rounds them to the same bits):
//
//	k   = round-to-nearest int32(x·log2e)           CVTSD2SL
//	r   = fnmadd(k, LN2U, x); r = fnmadd(k, LN2L, r) one rounding each
//	r   = r·(1/16)
//	p   = Horner over 1/8! … 1/2!, 1 with FMA        VFMADD213
//	e   = r·p, then three e·(e+2) and e·(e+2)+1      (e^r)^16 − 1, +1
//	e   = e · 2^k, 2^k built from the exponent bits
//	σ   = 1 / (1 + e)
//
// archExp leaves that straight line for non-finite x, x > Overflow, and
// 2^k outside the normal range (k+1023 ≤ 0 or ≥ 2047). A group of four
// whose arguments are not all within |x| ≤ 708 (which keeps k+1023 in
// [2, 2044] and excludes NaN and ±Inf) is left untouched and reported
// to the caller, which evaluates it with math.Exp.

#define SIGCONST(off, v) \
	DATA sigConst<>+(off)(SB)/8, v; \
	DATA sigConst<>+(off+8)(SB)/8, v; \
	DATA sigConst<>+(off+16)(SB)/8, v; \
	DATA sigConst<>+(off+24)(SB)/8, v

SIGCONST(0, $0x8000000000000000)                            // sign bit
SIGCONST(32, $708.0)                                        // vector range bound on |x|
SIGCONST(64, $1.4426950408889634073599246810018920)         // LOG2E
SIGCONST(96, $0.69314718055966295651160180568695068359375)  // LN2U
SIGCONST(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
SIGCONST(160, $0.0625)
SIGCONST(192, $2.4801587301587301587e-5)                    // 1/8!
SIGCONST(224, $1.9841269841269841270e-4)                    // 1/7!
SIGCONST(256, $1.3888888888888888889e-3)                    // 1/6!
SIGCONST(288, $8.3333333333333333333e-3)                    // 1/5!
SIGCONST(320, $4.1666666666666666667e-2)                    // 1/4!
SIGCONST(352, $1.6666666666666666667e-1)                    // 1/3!
SIGCONST(384, $0.5)
SIGCONST(416, $1.0)
SIGCONST(448, $2.0)
SIGCONST(480, $0x7fffffffffffffff)                          // |x| mask
DATA sigConst<>+512(SB)/4, $1023                            // exponent bias, four int32 lanes
DATA sigConst<>+516(SB)/4, $1023
DATA sigConst<>+520(SB)/4, $1023
DATA sigConst<>+524(SB)/4, $1023
GLOBL sigConst<>(SB), RODATA|NOPTR, $528

// SIGMOID_Y0 replaces the four float64 arguments x = −(z+b) in Y0 with
// 1/(1+exp(x)) and jumps to fallback, leaving Y0 and memory untouched,
// when any |x| > 708 or is NaN. Clobbers Y1, Y2, AX.
#define SIGMOID_Y0(fallback) \
	VANDPD sigConst<>+480(SB), Y0, Y1; \
	VCMPPD $0x12, sigConst<>+32(SB), Y1, Y1; \
	VMOVMSKPD Y1, AX; \
	CMPQ AX, $15; \
	JNE fallback; \
	VMULPD sigConst<>+64(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD sigConst<>+96(SB), Y1, Y0; \
	VFNMADD231PD sigConst<>+128(SB), Y1, Y0; \
	VMULPD sigConst<>+160(SB), Y0, Y0; \
	VMOVUPD sigConst<>+192(SB), Y1; \
	VFMADD213PD sigConst<>+224(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+256(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+288(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+320(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+352(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+384(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+416(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD sigConst<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD sigConst<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD sigConst<>+448(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD sigConst<>+448(SB), Y0, Y1; \
	VFMADD213PD sigConst<>+416(SB), Y1, Y0; \
	VPADDD sigConst<>+512(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0; \
	VADDPD sigConst<>+416(SB), Y0, Y0; \
	VMOVUPD sigConst<>+416(SB), Y1; \
	VDIVPD Y0, Y1, Y0

// func sigmoidF64Asm(dst, bias *float64, groups int) int
//
// dst[i] = 1/(1+exp(−(dst[i]+bias[i]))) for up to 4·groups elements,
// four per step. Returns the number of groups done: groups, or the
// index of the first group with an argument outside the vector range,
// which is left unchanged.
TEXT ·sigmoidF64Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ groups+16(FP), CX
	XORQ BX, BX
	TESTQ CX, CX
	JZ   s64done
s64loop:
	VMOVUPD (DI), Y0
	VADDPD (SI), Y0, Y0
	VXORPD sigConst<>+0(SB), Y0, Y0
	SIGMOID_Y0(s64done)
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	INCQ BX
	CMPQ BX, CX
	JB   s64loop
s64done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidF32Asm(dst, bias *float32, groups int) int
//
// The float32 form of sigmoidF64Asm: z+b is added at float32, widened
// exactly to float64 (VCVTPS2PD, as float64(−z)), and the float64 result
// narrowed with round-to-nearest (VCVTPD2PS, as a float32 conversion).
TEXT ·sigmoidF32Asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ groups+16(FP), CX
	XORQ BX, BX
	TESTQ CX, CX
	JZ   s32done
s32loop:
	VMOVUPS (DI), X0
	VADDPS (SI), X0, X0
	VCVTPS2PD X0, Y0
	VXORPD sigConst<>+0(SB), Y0, Y0
	SIGMOID_Y0(s32done)
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	ADDQ $16, SI
	INCQ BX
	CMPQ BX, CX
	JB   s32loop
s32done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET
