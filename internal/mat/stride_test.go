package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// padNaN fills the padding of the strided copies below: a signalling
// NaN whose payload no kernel produces, so a kernel that reads padding
// returns a NaN the dense run does not, and one that writes it changes
// these bits.
var padNaN = math.Float64frombits(0x7ff4deadbeef0001)

// stridedCopy returns m's elements in a matrix whose rows start stride
// elements apart, with every padding element holding padNaN.
func stridedCopy(m *Matrix, stride int) *Matrix {
	s := &Matrix{Rows: m.Rows, Cols: m.Cols, Stride: stride, Data: make([]float64, m.Rows*stride)}
	for i := range s.Data {
		s.Data[i] = padNaN
	}
	for i := 0; i < m.Rows; i++ {
		copy(s.Row(i), m.Row(i))
	}
	return s
}

// stridedKernelOutputs runs the kernels that walk W and β — MulVec,
// MulVecTrans, MulVecTransSqDist (dst, then the sum against v) — and
// then AddScaledOuter in place on w, returning the outputs and w's
// updated rows in order.
func stridedKernelOutputs(w *Matrix, x, xh, u, v []float64, s float64) [][]float64 {
	mv := make([]float64, w.Rows)
	MulVec(mv, w, x)
	mvt := make([]float64, w.Cols)
	MulVecTrans(mvt, w, xh)
	mvts := make([]float64, w.Cols)
	mvts = append(mvts, MulVecTransSqDist(mvts, w, xh, v))
	w.AddScaledOuter(s, u, v)
	return [][]float64{mv, mvt, mvts, w.Clone().Data}
}

// TestStridedKernelsMatchDense pins the row stride: on a copy of w whose
// rows start further apart, padding NaN, MulVec, MulVecTrans,
// MulVecTransSqDist and AddScaledOuter return the dense matrix's bits,
// with the float64 SIMD kernels on and off, in every f64Regimes regime
// across simdShapes, and write no padding element. The strides are the
// row plus one and plus eight elements and, where it pads, NewAligned's.
func TestStridedKernelsMatchDense(t *testing.T) {
	defer func(on bool) { f64SIMD = on }(f64SIMD)
	gates := []bool{false}
	if f64SIMD {
		gates = append(gates, true)
	}
	names := []string{"MulVec", "MulVecTrans", "MulVecTransSqDist", "AddScaledOuter"}
	rng := rand.New(rand.NewSource(17))
	for _, reg := range f64Regimes {
		for _, sh := range simdShapes() {
			w := New(sh.h, sh.d)
			x, v := make([]float64, sh.d), make([]float64, sh.d)
			xh, u := make([]float64, sh.h), make([]float64, sh.h)
			for _, d := range [][]float64{w.Data, x, v, xh, u} {
				reg.fill(rng, d)
			}
			if sh.h%4 != 0 {
				xh[sh.h-1] = math.Copysign(0, -1)
				u[sh.h-1] = 0
			}
			scale := []float64{1, -0.5, 1e-300, 0}[rng.Intn(4)]
			strides := []int{sh.d + 1, sh.d + 8}
			if a := NewAligned(sh.h, sh.d); a.Stride != 0 {
				strides = append(strides, a.Stride)
			}
			for _, on := range gates {
				f64SIMD = on
				want := stridedKernelOutputs(w.Clone(), x, xh, u, v, scale)
				for _, st := range strides {
					ws := stridedCopy(w, st)
					got := stridedKernelOutputs(ws, x, xh, u, v, scale)
					for k := range want {
						what := fmt.Sprintf("%s simd=%v %s %dx%d stride %d", reg.name, on, names[k], sh.h, sh.d, st)
						requireBitsEqual(t, got[k], want[k], reg.strict, what)
					}
					for i, e := range ws.Data {
						if i%st >= sh.d && math.Float64bits(e) != math.Float64bits(padNaN) {
							t.Fatalf("%s simd=%v %dx%d stride %d: padding element %d written: %#016x", reg.name, on, sh.h, sh.d, st, i, math.Float64bits(e))
						}
					}
				}
			}
		}
	}
}

// TestNewAlignedRowsOnLines pins NewAligned's rule: a row is padded to a
// multiple of 8 elements exactly when the padding is at most 1/64 of
// the row, and then every row starts on a 64-byte line; otherwise the
// matrix is dense.
func TestNewAlignedRowsOnLines(t *testing.T) {
	for c := 1; c <= 1100; c++ {
		for _, r := range []int{1, 2, 3, 4, 22, 64} {
			m := NewAligned(r, c)
			pad := (8 - c%8) % 8
			want := 0
			if pad != 0 && 64*pad <= c {
				want = c + pad
			}
			if m.Rows != r || m.Cols != c || m.Stride != want {
				t.Fatalf("NewAligned(%d, %d): %dx%d stride %d, want stride %d", r, c, m.Rows, m.Cols, m.Stride, want)
			}
			if want == 0 {
				continue
			}
			if len(m.Data) != r*want {
				t.Fatalf("NewAligned(%d, %d): len(Data) %d, want %d", r, c, len(m.Data), r*want)
			}
			for i := 0; i < r; i++ {
				if a := uintptr(unsafe.Pointer(&m.Row(i)[0])); a%64 != 0 {
					t.Fatalf("NewAligned(%d, %d): row %d at %#x, not on a 64-byte line", r, c, i, a)
				}
			}
		}
	}
}

// TestStridedMatrixMethods checks the whole-matrix methods on a strided
// matrix against its dense twin: element access, Clone (dense),
// CopyFrom both ways, Scale, AddDiag, Trace, the test helpers
// frobeniusNorm and maxAbsDiff,
// Mul and MulTransA with strided operands and destinations, and Zero.
func TestStridedMatrixMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const r, c = 9, 11
	a := randomOf[float64](rng, r, c)
	as := stridedCopy(a, 16)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if as.At(i, j) != a.At(i, j) {
				t.Fatalf("At(%d, %d) = %v, want %v", i, j, as.At(i, j), a.At(i, j))
			}
		}
	}
	cl := as.Clone()
	if cl.Stride != 0 || len(cl.Data) != r*c {
		t.Fatalf("Clone of a strided matrix: stride %d, len %d, want dense", cl.Stride, len(cl.Data))
	}
	requireBitEqual(t, cl.Data, a.Data, "Clone")
	back := stridedCopy(New(r, c), 16)
	back.CopyFrom(a)
	if maxAbsDiff(back, a) != 0 || maxAbsDiff(a, back) != 0 {
		t.Fatal("CopyFrom into a strided matrix lost elements")
	}
	as.Scale(-2)
	a.Scale(-2)
	requireBitEqual(t, as.Clone().Data, a.Data, "Scale")
	if frobeniusNorm(as) != frobeniusNorm(a) {
		t.Fatalf("FrobeniusNorm %v, want %v", frobeniusNorm(as), frobeniusNorm(a))
	}

	sq := randomOf[float64](rng, c, c)
	sqs := stridedCopy(sq, 13)
	sq.AddDiag(0.5)
	sqs.AddDiag(0.5)
	if sqs.Trace() != sq.Trace() {
		t.Fatalf("Trace %v, want %v", sqs.Trace(), sq.Trace())
	}
	want, got := New(r, c), stridedCopy(New(r, c), 12)
	Mul(want, a, sq)
	Mul(got, as, sqs)
	requireBitEqual(t, got.Clone().Data, want.Data, "Mul")
	wantT, gotT := New(c, c), stridedCopy(New(c, c), 15)
	MulTransA(wantT, a, a)
	MulTransA(gotT, as, as)
	requireBitEqual(t, gotT.Clone().Data, wantT.Data, "MulTransA")
	gotT.Zero()
	if frobeniusNorm(gotT) != 0 {
		t.Fatal("Zero left elements set")
	}
}
