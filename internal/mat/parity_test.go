package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Parity tests for the cache-blocked and batched kernels against the
// reference implementations at the end of this file, for the float64
// SIMD kernels against the generic Go path, and for the SIMD float32
// kernels against the generic scalar path.
//
// Exactness tiers:
//   - Blocked Mul/MulTransA vs refMul/refMulTransA: bit-identical at
//     float64 AND float32 — the 8-wide pass is written as two 4-term
//     statements, preserving the reference association exactly.
//   - MulBatchRows vs refMulBatch and vs per-sample MulVec:
//     bit-identical at both float types — every element is the same
//     dot product.
//   - MulVecBatchQ16 vs MulVecQ16: bit-identical — DotQ16 accumulates in
//     int64 and saturates once, so per-element order never changes.
//   - SIMD f64 kernels (f64SIMD on) vs the generic Go code (f64SIMD
//     off): Float64bits-identical for every dispatched kernel, on every
//     input including ±0, subnormals, ±Inf, NaN and 1e±300 magnitudes —
//     same operations, same association, no FMA. The one thing IEEE 754
//     leaves open is which payload a NaN result carries when two NaNs
//     with different payloads meet; x86 returns the first operand's and
//     the Go compiler picks operand order per statement. Inputs whose
//     NaNs all carry x86's default payload make every NaN in the
//     computation the same bits, so the strict run compares all bits;
//     a second run with Go's NaN payload also compares all bits except
//     that a NaN result only has to be NaN on both sides.
//   - SIMD f32 kernels vs generic scalar: tolerance-based — FMA and wide
//     accumulator trees legitimately round differently. The tolerance is
//     scaled to float32 accumulation error over the vector length.
//   - SIMD batch vs SIMD per-sample: bit-identical at both float types —
//     both entry points run the same asm kernel per element.

// parityShapes covers the awkward cases: single-element dims, exact
// multiples of the 4- and 8-wide blocking, one-off-a-multiple (ragged
// tails), and the paper's real shapes (D=511, H=22).
var parityShapes = []struct{ n, d, h int }{
	{1, 1, 1},
	{1, 511, 22},
	{3, 5, 2},
	{4, 8, 8},
	{5, 9, 7},
	{7, 12, 4},
	{8, 16, 3},
	{9, 17, 9},
	{16, 32, 22},
	{17, 33, 23},
	{64, 511, 22},
	{65, 63, 129},
}

// simdShapes is parityShapes plus every h×d in 1..9 × 1..17 (n=3): each
// side of the SIMD kernels' four-row grouping, lane width, tail masks
// and minimum lengths.
func simdShapes() []struct{ n, d, h int } {
	shapes := append([]struct{ n, d, h int }(nil), parityShapes...)
	for h := 1; h <= 9; h++ {
		for d := 1; d <= 17; d++ {
			shapes = append(shapes, struct{ n, d, h int }{3, d, h})
		}
	}
	return shapes
}

func fillRand[E Element](rng *rand.Rand, data []E) {
	for i := range data {
		// Sprinkle exact zeros so the zero-skip scalar tails are hit.
		if rng.Intn(8) == 0 {
			data[i] = 0
			continue
		}
		data[i] = E(rng.NormFloat64())
	}
}

func randomOf[E Element](rng *rand.Rand, r, c int) *MatrixOf[E] {
	m := NewOf[E](r, c)
	fillRand(rng, m.Data)
	return m
}

func requireBitEqual[E Element](t *testing.T, got, want []E, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] || (got[i] == 0 && math.Signbit(float64(got[i])) != math.Signbit(float64(want[i]))) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

func testMulParity[E Element](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range parityShapes {
		a := randomOf[E](rng, s.n, s.d)
		b := randomOf[E](rng, s.d, s.h)
		got := NewOf[E](s.n, s.h)
		want := NewOf[E](s.n, s.h)
		Mul(got, a, b)
		refMul(want, a, b)
		requireBitEqual(t, got.Data, want.Data, "Mul")

		at := randomOf[E](rng, s.d, s.n)
		gotT := NewOf[E](s.n, s.h)
		wantT := NewOf[E](s.n, s.h)
		MulTransA(gotT, at, b)
		refMulTransA(wantT, at, b)
		requireBitEqual(t, gotT.Data, wantT.Data, "MulTransA")
	}
}

func TestMulBlockedMatchesReferenceF64(t *testing.T) { testMulParity[float64](t, 1) }
func TestMulBlockedMatchesReferenceF32(t *testing.T) { testMulParity[float32](t, 2) }

func testMulBatchParity[E Element](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range parityShapes {
		a := randomOf[E](rng, s.n, s.d)
		w := randomOf[E](rng, s.h, s.d)
		want := NewOf[E](s.n, s.h)
		refMulBatch(want, a, w)

		// Rows form, and per-sample MulVec equivalence.
		xs := rowsOf(a)
		gotRows := NewOf[E](s.n, s.h)
		MulBatchRows(gotRows, xs, w)
		requireBitEqual(t, gotRows.Data, want.Data, "MulBatchRows")

		per := make([]E, s.h)
		for i := range xs {
			MulVec(per, w, xs[i])
			requireBitEqual(t, gotRows.Row(i), per, "MulBatchRows vs MulVec")
		}
	}
}

// rowsOf returns views of m's rows.
func rowsOf[E Element](m *MatrixOf[E]) [][]E {
	xs := make([][]E, m.Rows)
	for i := range xs {
		xs[i] = m.Row(i)
	}
	return xs
}

func TestMulBatchMatchesReferenceF64(t *testing.T) { testMulBatchParity[float64](t, 3) }
func TestMulBatchMatchesReferenceF32(t *testing.T) { testMulBatchParity[float32](t, 4) }

// TestMulBlockedPropertyRandomShapes is the property-style sweep: many
// random shapes beyond the curated list, still demanding bit-equality.
func TestMulBlockedPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		d := 1 + rng.Intn(70)
		h := 1 + rng.Intn(24)
		a := randomOf[float64](rng, n, d)
		b := randomOf[float64](rng, d, h)
		got := New(n, h)
		want := New(n, h)
		Mul(got, a, b)
		refMul(want, a, b)
		requireBitEqual(t, got.Data, want.Data, "Mul(property)")

		at := randomOf[float64](rng, d, n)
		MulTransA(got, at, b)
		refMulTransA(want, at, b)
		requireBitEqual(t, got.Data, want.Data, "MulTransA(property)")

		w := randomOf[float64](rng, h, d)
		MulBatchRows(got, rowsOf(a), w)
		refMulBatch(want, a, w)
		requireBitEqual(t, got.Data, want.Data, "MulBatchRows(property)")
	}
}

// x86NaN is the quiet NaN x86 produces for an invalid operation such as
// ∞·0 or ∞−∞ (sign set, zero payload). Inputs that use it as their only
// NaN keep every NaN in a computation at one bit pattern.
var x86NaN = math.Float64frombits(0xfff8000000000000)

// f64Regime fills a float64 input for the SIMD parity test.
type f64Regime struct {
	name   string
	strict bool // NaN results must match bit for bit, not just be NaN
	fill   func(rng *rand.Rand, data []float64)
}

// specialsFill returns a fill that sprinkles specials among normals and
// exact zeros of both signs, at a rate of about 1 in every.
func specialsFill(specials []float64, every int) func(*rand.Rand, []float64) {
	return func(rng *rand.Rand, data []float64) {
		for i := range data {
			switch {
			case rng.Intn(8) == 0:
				data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			case rng.Intn(every) == 0:
				data[i] = specials[rng.Intn(len(specials))]
			default:
				data[i] = rng.NormFloat64()
			}
		}
	}
}

var f64Regimes = []f64Regime{
	{"normal", true, specialsFill([]float64{0}, 1<<30)},
	{"magnitudes", true, func(rng *rand.Rand, data []float64) {
		// 1e±300 overflow to ±Inf and underflow through the subnormals.
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300))
			if rng.Intn(8) == 0 {
				data[i] = 0
			}
		}
	}},
	{"subnormal", true, specialsFill([]float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1040, 0x1p-1022 - 0x1p-1074,
	}, 2)},
	{"specials", true, specialsFill([]float64{
		math.Inf(1), math.Inf(-1), x86NaN, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
	}, 16)},
	{"go-nan", false, specialsFill([]float64{
		math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e-300,
	}, 16)},
}

func requireBitsEqual(t *testing.T, got, want []float64, strict bool, what string) {
	t.Helper()
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g == w || !strict && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		t.Fatalf("%s: element %d = %v (%#016x), want %v (%#016x)", what, i, got[i], g, want[i], w)
	}
}

// f64KernelOutputs runs every float64 kernel that dispatches to the SIMD
// path on one rows×cols weight matrix and returns their outputs in
// order: Dot, MulVec, MulVecTrans, AddScaledOuter, MulBatchRows and
// MulBatchTrans.
func f64KernelOutputs(w *Matrix, x, xh, u, v []float64, s float64, a *Matrix) [][]float64 {
	rows, cols, n := w.Rows, w.Cols, a.Rows
	dot := []float64{Dot(w.Row(0), x), Dot(x, x)}
	mv := make([]float64, rows)
	MulVec(mv, w, x)
	mvt := make([]float64, cols)
	MulVecTrans(mvt, w, xh)
	outer := w.Clone()
	outer.AddScaledOuter(s, u, v)
	batch := New(n, rows)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = x
		if i%2 == 1 {
			xs[i] = v
		}
	}
	MulBatchRows(batch, xs, w)
	batchT := New(n, cols)
	MulBatchTrans(batchT, a, w)
	return [][]float64{dot, mv, mvt, outer.Data, batch.Data, batchT.Data}
}

var f64KernelNames = []string{"Dot", "MulVec", "MulVecTrans", "AddScaledOuter", "MulBatchRows", "MulBatchTrans"}

// TestF64SIMDMatchesGo pins the float64 SIMD contract: every dispatched
// kernel returns exactly the bits of the generic Go code, across
// simdShapes.
func TestF64SIMDMatchesGo(t *testing.T) {
	if !f64SIMD {
		t.Skip("float64 SIMD kernels not available on this CPU")
	}
	defer func() { f64SIMD = true }()
	rng := rand.New(rand.NewSource(9))
	for _, reg := range f64Regimes {
		for _, sh := range simdShapes() {
			w := New(sh.h, sh.d)
			reg.fill(rng, w.Data)
			x, v := make([]float64, sh.d), make([]float64, sh.d)
			xh, u := make([]float64, sh.h), make([]float64, sh.h)
			a := New(sh.n, sh.h)
			for _, d := range [][]float64{x, v, xh, u, a.Data} {
				reg.fill(rng, d)
			}
			// Zero-skip rows: the last row of every 4-row remainder.
			if sh.h%4 != 0 {
				xh[sh.h-1] = math.Copysign(0, -1)
				u[sh.h-1] = 0
			}
			scale := []float64{1, -0.5, 1e-300, 0}[rng.Intn(4)]

			f64SIMD = true
			got := f64KernelOutputs(w, x, xh, u, v, scale, a)
			f64SIMD = false
			want := f64KernelOutputs(w, x, xh, u, v, scale, a)
			f64SIMD = true
			for k := range want {
				what := fmt.Sprintf("%s %s n=%d %dx%d", reg.name, f64KernelNames[k], sh.n, sh.h, sh.d)
				requireBitsEqual(t, got[k], want[k], reg.strict, what)
			}
		}
	}
}

// TestF64KernelsZeroAlloc pins that dispatching a float64 kernel to the
// SIMD path (through unsafe.Slice views and stack accumulators)
// allocates nothing, at the fan shape (D=511, H=22).
func TestF64KernelsZeroAlloc(t *testing.T) {
	const d, h, n = 511, 22, 8
	w := New(h, d)
	fillRand(rand.New(rand.NewSource(10)), w.Data)
	x, v := make([]float64, d), make([]float64, d)
	xh, u := make([]float64, h), make([]float64, h)
	mv, mvt := make([]float64, h), make([]float64, d)
	a, batch, batchT := New(n, h), New(n, h), New(n, d)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = x
	}
	var sink float64
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"Dot", func() { sink += Dot(x, v) }},
		{"MulVec", func() { MulVec(mv, w, x) }},
		{"MulVecTrans", func() { MulVecTrans(mvt, w, xh) }},
		{"AddScaledOuter", func() { w.AddScaledOuter(0, u, v) }},
		{"MulBatchRows", func() { MulBatchRows(batch, xs, w) }},
		{"MulBatchTrans", func() { MulBatchTrans(batchT, a, w) }},
	} {
		if allocs := testing.AllocsPerRun(20, k.fn); allocs != 0 {
			t.Errorf("%s (f64SIMD=%v): %v allocs/op, want 0", k.name, f64SIMD, allocs)
		}
	}
	sinkFloat = sink
}

// f32Tol returns the comparison tolerance for SIMD-vs-scalar float32
// sums of n products: accumulation error grows like sqrt(n) in the
// random case but we budget linearly to keep the test deterministic.
func f32Tol(n int, scale float64) float64 {
	return float64(n)*1e-6*scale + 1e-6
}

func maxAbs32(v []float32) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(float64(x)); a > m {
			m = a
		}
	}
	return m
}

func TestF32SIMDKernelsMatchScalar(t *testing.T) {
	if !f32SIMD {
		t.Skip("SIMD kernels not available on this CPU")
	}
	defer func() { f32SIMD = true }()
	rng := rand.New(rand.NewSource(6))
	for _, s := range simdShapes() {
		w := randomOf[float32](rng, s.h, s.d)
		x := make([]float32, s.d)
		fillRand(rng, x)

		f32SIMD = true
		gotMV := make([]float32, s.h)
		MulVecF32(gotMV, w, x)
		xh := make([]float32, s.h)
		fillRand(rng, xh)
		gotMVT := make([]float32, s.d)
		MulVecTransF32(gotMVT, w, xh)

		f32SIMD = false
		wantMV := make([]float32, s.h)
		MulVecF32(wantMV, w, x)
		wantMVT := make([]float32, s.d)
		MulVecTransF32(wantMVT, w, xh)
		f32SIMD = true

		tol := f32Tol(s.d, maxAbs32(w.Row(0))*maxAbs32(x))
		for i := range gotMV {
			if math.Abs(float64(gotMV[i])-float64(wantMV[i])) > tol {
				t.Fatalf("MulVecF32 shape %dx%d row %d: simd %v scalar %v", s.h, s.d, i, gotMV[i], wantMV[i])
			}
		}
		tolT := f32Tol(s.h, maxAbs32(xh)*2)
		for j := range gotMVT {
			if math.Abs(float64(gotMVT[j])-float64(wantMVT[j])) > tolT {
				t.Fatalf("MulVecTransF32 shape %dx%d col %d: simd %v scalar %v", s.h, s.d, j, gotMVT[j], wantMVT[j])
			}
		}
	}
}

// TestF32BatchMatchesPerSample pins the batch-path invariant the scoring
// stack relies on: batched f32 results are bit-identical to per-sample
// f32 results through the same dispatchers, SIMD or not.
func TestF32BatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	run := func(t *testing.T) {
		for _, s := range simdShapes() {
			a := randomOf[float32](rng, s.n, s.d)
			w := randomOf[float32](rng, s.h, s.d)
			batch := NewOf[float32](s.n, s.h)
			MulBatchF32(batch, a, w)
			per := make([]float32, s.h)
			for i := 0; i < s.n; i++ {
				MulVecF32(per, w, a.Row(i))
				requireBitEqual(t, batch.Row(i), per, "MulBatchF32 vs MulVecF32")
			}

			h := randomOf[float32](rng, s.n, s.h)
			beta := randomOf[float32](rng, s.h, s.d)
			batchT := NewOf[float32](s.n, s.d)
			MulBatchTransF32(batchT, h, beta)
			perT := make([]float32, s.d)
			for i := 0; i < s.n; i++ {
				MulVecTransF32(perT, beta, h.Row(i))
				requireBitEqual(t, batchT.Row(i), perT, "MulBatchTransF32 vs MulVecTransF32")
			}
		}
	}
	t.Run("dispatch", run)
	if f32SIMD {
		f32SIMD = false
		t.Run("scalar", run)
		f32SIMD = true
	}
}

func TestMulVecBatchQ16MatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range parityShapes {
		w := make([]int32, s.h*s.d)
		for i := range w {
			w[i] = int32(rng.Intn(1<<20) - 1<<19)
		}
		xs := make([][]int32, s.n)
		for i := range xs {
			xs[i] = make([]int32, s.d)
			for j := range xs[i] {
				xs[i][j] = int32(rng.Intn(1<<20) - 1<<19)
			}
		}
		dst := make([]int32, s.n*s.h)
		MulVecBatchQ16(dst, w, xs, s.h)
		per := make([]int32, s.h)
		for i := range xs {
			MulVecQ16(per, w, xs[i])
			for r := range per {
				if dst[i*s.h+r] != per[r] {
					t.Fatalf("MulVecBatchQ16 sample %d row %d: %d want %d", i, r, dst[i*s.h+r], per[r])
				}
			}
		}
	}
}

func TestBatchKernelShapePanics(t *testing.T) {
	a := New(3, 4)
	w := New(2, 4)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"MulBatchRows dims", func() { MulBatchRows(New(3, 3), rowsOf(a), w) }},
		{"MulBatchRows inner", func() { MulBatchRows(New(3, 2), rowsOf(a), New(2, 5)) }},
		{"MulBatchRows ragged", func() {
			MulBatchRows(New(2, 2), [][]float64{make([]float64, 4), make([]float64, 3)}, w)
		}},
		{"MulBatchF32", func() { MulBatchF32(NewOf[float32](3, 3), NewOf[float32](3, 4), NewOf[float32](2, 4)) }},
		{"MulVecBatchQ16", func() {
			MulVecBatchQ16(make([]int32, 3), make([]int32, 8), [][]int32{make([]int32, 4)}, 2)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// Reference kernels: the pre-blocking implementations of Mul and
// MulTransA, kept verbatim as the ground truth the parity tests compare
// the cache-blocked kernels against. The blocked kernels in mat.go are
// written to preserve these kernels' exact floating-point accumulation
// association at float64 (see the comments there), so "matches the
// reference bit for bit" is a testable invariant rather than an
// aspiration. Do not optimise these: their only job is to stay simple
// and obviously correct.

// refMul computes dst = a·b with the historical 4-wide k-unrolled loop.
func refMul[E Element](dst, a, b *MatrixOf[E]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(ErrShape)
	}
	n := a.Cols
	bc := b.Cols
	n4 := n &^ 3
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		var k int
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
				drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < n; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// refMulTransA computes dst = aᵀ·b with the historical 4-row loop.
func refMulTransA[E Element](dst, a, b *MatrixOf[E]) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	n := a.Rows
	n4 := n &^ 3
	var k int
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
				drow[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
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
				drow[j] += av * bv
			}
		}
	}
}

// refMulBatch computes dst = a·bᵀ one dot product at a time — the
// per-sample MulVec loop the batched kernel replaces, kept as the parity
// reference. Each element is the plain 4-accumulator dotKernel, which is
// also exactly what MulVec produces per row: the batch path being
// bit-identical to the per-sample path at every element type reduces to
// MulBatchRows matching this function.
func refMulBatch[E Element](dst, a, b *MatrixOf[E]) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = dotKernel(b.Row(j), arow)
		}
	}
}
