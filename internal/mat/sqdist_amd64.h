// The squared residual Σ (ref_j − dst_j)² that the transposed matvec
// kernels (f64_amd64.s, f32_amd64.s) fold into their single pass over
// the weights. The sum lives in X14 and grows by one VADDSD per column,
// in column order, exactly as the Go loop s += d·d in SqDist. ref is
// read at R11. ·sqMask (f64_amd64.s) supplies the lane masks.

// SUMLANES_Y9 adds the four float64 lanes of Y9 to X14, lane 0 first.
// Clobbers Y10 and Y11.
#define SUMLANES_Y9 \
	VADDSD X9, X14, X14; \
	VUNPCKHPD X9, X9, X10; \
	VADDSD X10, X14, X14; \
	VEXTRACTF128 $1, Y9, X11; \
	VADDSD X11, X14, X14; \
	VUNPCKHPD X11, X11, X10; \
	VADDSD X10, X14, X14

// SQRESID(off, src, mask) adds (ref−src)² for the four float64 columns
// in src, whose ref values are at off(R11), to X14. Lanes clear in mask
// add +0 instead, which leaves the sum's bits unchanged: it starts at +0
// and only ever adds squares, so it is never −0. Clobbers Y9–Y11.
#define SQRESID(off, src, mask) \
	VMOVUPD off(R11), Y9; \
	VSUBPD src, Y9, Y9; \
	VMULPD Y9, Y9, Y9; \
	VANDPD mask, Y9, Y9; \
	SUMLANES_Y9
