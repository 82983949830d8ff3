// Package mat provides small, allocation-conscious dense linear algebra
// primitives used by the OS-ELM learner and the SPLL drift detector.
//
// The package is deliberately minimal: row-major dense matrices, the
// handful of kernels sequential learning needs (multiply, rank-1
// updates, symmetric inverses), and nothing else. It trades generality
// for predictable memory behaviour, which is what the paper's
// resource-limited setting is about: every retained buffer is visible
// and accountable.
//
// Since the precision refactor the kernel layer is generic over the
// element type: the same unrolled loops instantiate at float64 (the
// training path — RLS conditioning needs the headroom) and float32
// (the inference path on 32-bit edge targets, halving model memory and
// kernel bandwidth). Matrix remains an alias for the float64
// instantiation so existing callers don't churn; q16.go adds the
// Q16.16 fixed-point kernels the FPU-less deployment shares with
// internal/fixed. The dense solvers (Inverse, Cholesky) intentionally
// stay float64-only: they exist for initialisation and covariance
// conditioning, which the precision axis never moves off float64.
//
// Two hand-written SIMD paths sit under the generic layer on amd64.
// The float64 kernels the scoring and RLS path calls (MulVec,
// MulVecTrans, Dot, AddScaledOuter and the batch forms) dispatch
// internally to AVX assembly that is bit-identical to the Go loops
// (f64.go); the float32 F32-suffixed entry points use AVX2+FMA and
// match the Go loops only within rounding (f32.go). Every product that
// feeds an add in this package is written E(x*y), so no architecture
// may fuse it into a multiply-add and round differently.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix inversion or solve encounters a
// pivot too small to divide by reliably.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Element constrains the floating-point element types the generic
// kernel layer instantiates at.
type Element interface {
	~float32 | ~float64
}

// MatrixOf is a dense, row-major matrix of E.
//
// The zero value is an empty matrix; use New/NewOf or NewFromData to
// create a sized one. Methods that write results take the receiver as
// destination where practical so hot loops can reuse storage.
type MatrixOf[E Element] struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i, j) is
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []E
}

// Matrix is the float64 instantiation — the historical API and the
// element type of every training-side structure.
type Matrix = MatrixOf[float64]

// New returns a zeroed r×c float64 matrix.
func New(r, c int) *Matrix { return NewOf[float64](r, c) }

// NewOf returns a zeroed r×c matrix of E.
func NewOf[E Element](r, c int) *MatrixOf[E] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &MatrixOf[E]{Rows: r, Cols: c, Data: make([]E, r*c)}
}

// NewFromData wraps data (not copied) as an r×c matrix.
func NewFromData[E Element](r, c int, data []E) *MatrixOf[E] {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &MatrixOf[E]{Rows: r, Cols: c, Data: data}
}

// Identity returns the n×n float64 identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *MatrixOf[E]) At(i, j int) E { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *MatrixOf[E]) Set(i, j int, v E) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *MatrixOf[E]) Row(i int) []E { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *MatrixOf[E]) Clone() *MatrixOf[E] {
	c := NewOf[E](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *MatrixOf[E]) CopyFrom(src *MatrixOf[E]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(ErrShape)
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *MatrixOf[E]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by s in place.
func (m *MatrixOf[E]) Scale(s E) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddDiag adds s to every diagonal element of the square matrix m.
func (m *MatrixOf[E]) AddDiag(s E) {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += s
	}
}

// Mul computes dst = a·b. dst must not alias a or b; it is resized storage
// allocated by the caller with shape a.Rows×b.Cols.
//
// The inner loop consumes eight rows of b per sweep of the destination
// row — twice the historical 4-wide unroll — halving how often drow is
// re-read from memory, which is what the kernel is bound by at these
// shapes. Float64 results stay bit-identical to refMul: each 8-row pass
// adds two 4-term groups to drow[j] in two statements, which is exactly
// the association of two consecutive 4-wide passes, and the 4-wide and
// scalar tails below are the reference's own (including the zero-skip,
// whose absence could flip a −0 sum to +0).
func Mul[E Element](dst, a, b *MatrixOf[E]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(ErrShape)
	}
	n := a.Cols
	bc := b.Cols
	n4 := n &^ 3
	n8 := n &^ 7
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		var k int
		for ; k < n8; k += 8 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			a4, a5, a6, a7 := arow[k+4], arow[k+5], arow[k+6], arow[k+7]
			b0 := b.Data[k*bc : k*bc+bc]
			b1 := b.Data[(k+1)*bc : (k+1)*bc+bc]
			b2 := b.Data[(k+2)*bc : (k+2)*bc+bc]
			b3 := b.Data[(k+3)*bc : (k+3)*bc+bc]
			b4 := b.Data[(k+4)*bc : (k+4)*bc+bc]
			b5 := b.Data[(k+5)*bc : (k+5)*bc+bc]
			b6 := b.Data[(k+6)*bc : (k+6)*bc+bc]
			b7 := b.Data[(k+7)*bc : (k+7)*bc+bc]
			if len(b0) < len(drow) || len(b1) < len(drow) || len(b2) < len(drow) || len(b3) < len(drow) ||
				len(b4) < len(drow) || len(b5) < len(drow) || len(b6) < len(drow) || len(b7) < len(drow) {
				panic(ErrShape) // unreachable; hoists the bounds checks
			}
			for j := range drow {
				s := drow[j] + (E(a0*b0[j]) + E(a1*b1[j]) + E(a2*b2[j]) + E(a3*b3[j]))
				drow[j] = s + (E(a4*b4[j]) + E(a5*b5[j]) + E(a6*b6[j]) + E(a7*b7[j]))
			}
		}
		for ; k < n4; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Data[k*bc : k*bc+bc]
			b1 := b.Data[(k+1)*bc : (k+1)*bc+bc]
			b2 := b.Data[(k+2)*bc : (k+2)*bc+bc]
			b3 := b.Data[(k+3)*bc : (k+3)*bc+bc]
			if len(b0) < len(drow) || len(b1) < len(drow) || len(b2) < len(drow) || len(b3) < len(drow) {
				panic(ErrShape) // unreachable; hoists the bounds checks
			}
			for j := range drow {
				drow[j] += E(a0*b0[j]) + E(a1*b1[j]) + E(a2*b2[j]) + E(a3*b3[j])
			}
		}
		for ; k < n; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += E(av * bv)
			}
		}
	}
}

// MulTransA computes dst = aᵀ·b without materialising aᵀ. Eight rows of
// a and b are consumed per pass so each destination row is updated with
// two fused 4-term accumulations instead of eight separate
// read-modify-write sweeps. Like Mul, the 8-row pass adds its two 4-term
// groups in two statements — the exact association of two consecutive
// 4-row reference passes — and the tails are the reference's own, so
// float64 results are bit-identical to refMulTransA.
func MulTransA[E Element](dst, a, b *MatrixOf[E]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	n := a.Rows
	n4 := n &^ 3
	n8 := n &^ 7
	var k int
	for ; k < n8; k += 8 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		a4, a5, a6, a7 := a.Row(k+4), a.Row(k+5), a.Row(k+6), a.Row(k+7)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		b4, b5, b6, b7 := b.Row(k+4), b.Row(k+5), b.Row(k+6), b.Row(k+7)
		for i := range a0 {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			v4, v5, v6, v7 := a4[i], a5[i], a6[i], a7[i]
			drow := dst.Row(i)
			if len(b0) < len(drow) || len(b1) < len(drow) || len(b2) < len(drow) || len(b3) < len(drow) ||
				len(b4) < len(drow) || len(b5) < len(drow) || len(b6) < len(drow) || len(b7) < len(drow) {
				panic(ErrShape) // unreachable; hoists the bounds checks
			}
			for j := range drow {
				s := drow[j] + (E(v0*b0[j]) + E(v1*b1[j]) + E(v2*b2[j]) + E(v3*b3[j]))
				drow[j] = s + (E(v4*b4[j]) + E(v5*b5[j]) + E(v6*b6[j]) + E(v7*b7[j]))
			}
		}
	}
	for ; k < n4; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		for i := range a0 {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			drow := dst.Row(i)
			if len(b0) < len(drow) || len(b1) < len(drow) || len(b2) < len(drow) || len(b3) < len(drow) {
				panic(ErrShape) // unreachable; hoists the bounds checks
			}
			for j := range drow {
				drow[j] += E(v0*b0[j]) + E(v1*b1[j]) + E(v2*b2[j]) + E(v3*b3[j])
			}
		}
	}
	for ; k < n; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += E(av * bv)
			}
		}
	}
}

// MulVec computes dst = m·x for a vector x (len m.Cols) into dst
// (len m.Rows). dst must not alias x. Each row product runs through the
// 4-accumulator dot kernel.
func MulVec[E Element](dst []E, m *MatrixOf[E], x []E) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(ErrShape)
	}
	mulVecRows(dst, m.Data, x)
}

// mulVecRows sets dst[r] = dotKernel(row r of w, x) for the row-major
// len(dst)×len(x) slab w — MulVec's body, shared with MulBatchRows.
func mulVecRows[E Element](dst, w, x []E) {
	if useF64SIMD[E](len(x)) {
		mulVecF64(f64View(dst), f64View(w), f64View(x))
		return
	}
	cols := len(x)
	for i := range dst {
		dst[i] = dotKernel(w[i*cols:i*cols+cols], x)
	}
}

// MulVecTrans computes dst = mᵀ·x for x of length m.Rows into dst of
// length m.Cols, without materialising mᵀ. Four matrix rows are folded
// into dst per pass.
func MulVecTrans[E Element](dst []E, m *MatrixOf[E], x []E) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(ErrShape)
	}
	if useF64SIMD[E](m.Cols) {
		mulVecTransF64(f64View(dst), f64View(m.Data), f64View(x))
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	cols := m.Cols
	n := m.Rows
	n4 := n &^ 3
	var i int
	for ; i < n4; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		r0 := m.Data[i*cols : i*cols+cols]
		r1 := m.Data[(i+1)*cols : (i+1)*cols+cols]
		r2 := m.Data[(i+2)*cols : (i+2)*cols+cols]
		r3 := m.Data[(i+3)*cols : (i+3)*cols+cols]
		if len(r0) < len(dst) || len(r1) < len(dst) || len(r2) < len(dst) || len(r3) < len(dst) {
			panic(ErrShape) // unreachable; hoists the bounds checks
		}
		for j := range dst {
			dst[j] += E(x0*r0[j]) + E(x1*r1[j]) + E(x2*r2[j]) + E(x3*r3[j])
		}
	}
	for ; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			dst[j] += E(xi * v)
		}
	}
}

// AddScaledOuter performs the rank-1 update m ← m + s·u·vᵀ in place.
// u has length m.Rows and v length m.Cols.
//
// Rows are processed in blocks of four per sweep of v, so v is read from
// cache once per block instead of once per row — the layout that makes
// Train's H×H Sherman-Morrison update and H×D β update stream at memory
// speed.
func (m *MatrixOf[E]) AddScaledOuter(s E, u, v []E) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic(ErrShape)
	}
	if useF64SIMD[E](m.Cols) {
		addScaledOuterF64(f64View(m.Data), float64(s), f64View(u), f64View(v))
		return
	}
	cols := m.Cols
	n := len(u)
	n4 := n &^ 3
	var i int
	for ; i < n4; i += 4 {
		s0, s1, s2, s3 := s*u[i], s*u[i+1], s*u[i+2], s*u[i+3]
		r0 := m.Data[i*cols : i*cols+cols]
		r1 := m.Data[(i+1)*cols : (i+1)*cols+cols]
		r2 := m.Data[(i+2)*cols : (i+2)*cols+cols]
		r3 := m.Data[(i+3)*cols : (i+3)*cols+cols]
		if len(v) < len(r0) || len(r1) < len(r0) || len(r2) < len(r0) || len(r3) < len(r0) {
			panic(ErrShape) // unreachable; hoists the bounds checks
		}
		for j := range r0 {
			vv := v[j]
			r0[j] += E(s0 * vv)
			r1[j] += E(s1 * vv)
			r2[j] += E(s2 * vv)
			r3[j] += E(s3 * vv)
		}
	}
	for ; i < n; i++ {
		su := s * u[i]
		if su == 0 {
			continue
		}
		row := m.Row(i)
		for j, vv := range v {
			row[j] += E(su * vv)
		}
	}
}

// Inverse computes the inverse of the square matrix a into dst using
// Gauss-Jordan elimination with partial pivoting. dst and a may alias.
//
// Inverse is float64-only by design: it serves batch initialisation and
// covariance conditioning, which stay at full precision regardless of
// the inference element width (the pivot threshold alone would be
// meaningless at float32).
func Inverse(dst, a *Matrix) error {
	if a.Rows != a.Cols || dst.Rows != dst.Cols || dst.Rows != a.Rows {
		panic(ErrShape)
	}
	n := a.Rows
	// Work on an augmented copy so aliasing is safe.
	work := a.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-300 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := work.At(col, col)
		invP := 1 / p
		scaleRow(work, col, invP)
		scaleRow(inv, col, invP)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(work, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	dst.CopyFrom(inv)
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(m *Matrix, i int, s float64) {
	row := m.Row(i)
	for k := range row {
		row[k] *= s
	}
}

// axpyRow adds f times row j to row i.
func axpyRow(m *Matrix, i, j int, f float64) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k] += float64(f * rj[k])
	}
}

// Cholesky computes the lower-triangular Cholesky factor L of the
// symmetric positive-definite matrix a (a = L·Lᵀ) into dst. dst and a may
// alias. Returns ErrSingular if a is not positive definite. Float64-only,
// like Inverse.
func Cholesky(dst, a *Matrix) error {
	if a.Rows != a.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(ErrShape)
	}
	n := a.Rows
	l := dst
	if l != a {
		l.CopyFrom(a)
	}
	for j := 0; j < n; j++ {
		d := l.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= float64(v * v)
		}
		if d <= 0 {
			return ErrSingular
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= float64(l.At(i, k) * l.At(j, k))
			}
			l.Set(i, j, s*inv)
		}
	}
	// Zero the strict upper triangle so dst is exactly L.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	return nil
}

// RidgeGram computes dst = aᵀ·a + λ·I, the regularised Gram matrix used to
// initialise OS-ELM and SPLL covariance estimates.
func RidgeGram[E Element](dst, a *MatrixOf[E], lambda E) {
	if dst.Rows != a.Cols || dst.Cols != a.Cols {
		panic(ErrShape)
	}
	MulTransA(dst, a, a)
	dst.AddDiag(lambda)
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b; useful for approximate-equality assertions.
func MaxAbsDiff[E Element](a, b *MatrixOf[E]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	var m float64
	for i, v := range a.Data {
		if d := math.Abs(float64(v - b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

// Trace returns the sum of the diagonal of the square matrix m.
func (m *MatrixOf[E]) Trace() float64 {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += float64(m.Data[i*m.Cols+i])
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of m. The accumulation runs
// at float64 for every element type.
func (m *MatrixOf[E]) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// Asymmetry scans a square matrix and returns the largest absolute
// off-diagonal mismatch |m[i][j] − m[j][i]| together with the largest
// magnitude among the compared elements, so callers can judge symmetry
// loss relative to the matrix's own scale before deciding to repair it.
func (m *MatrixOf[E]) Asymmetry() (maxDiff, maxMag float64) {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := float64(m.At(i, j)), float64(m.At(j, i))
			if d := math.Abs(a - b); d > maxDiff {
				maxDiff = d
			}
			if aa := math.Abs(a); aa > maxMag {
				maxMag = aa
			}
			if ab := math.Abs(b); ab > maxMag {
				maxMag = ab
			}
		}
	}
	return maxDiff, maxMag
}

// SymmetrizeInPlace replaces m with (m + mᵀ)/2, repairing the small
// asymmetries rank-1 updates accumulate on covariance-like matrices.
func (m *MatrixOf[E]) SymmetrizeInPlace() {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := E(0.5) * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String renders a small matrix for debugging; large matrices are
// abbreviated to their shape.
func (m *MatrixOf[E]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", float64(m.At(i, j)))
		}
	}
	return s + "]"
}
