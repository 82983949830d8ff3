package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD returns a random symmetric positive-definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := New(n, n)
	MulTransA(spd, a, a)
	spd.AddDiag(float64(n)) // guarantee positive definiteness
	return spd
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = -1 // views alias underlying storage
	if m.At(1, 0) != -1 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMulKnownValues(t *testing.T) {
	a := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := mulNew(a, b)
	want := NewFromData(2, 2, []float64{58, 64, 139, 154})
	if maxAbsDiff(got, want) > tol {
		t.Fatalf("a·b = %v, want %v", got, want)
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(New(2, 2), New(2, 3), New(2, 2))
}

func TestMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 3)
	b := randomMatrix(rng, 5, 4)
	got := New(3, 4)
	MulTransA(got, a, b)
	want := mulNew(transpose(a), b)
	if maxAbsDiff(got, want) > tol {
		t.Fatalf("MulTransA disagrees with explicit transpose by %v", maxAbsDiff(got, want))
	}
}

func TestMulVecAndTrans(t *testing.T) {
	m := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MulVec(dst, m, x)
	if !almostEqual(dst[0], -2, tol) || !almostEqual(dst[1], -2, tol) {
		t.Fatalf("MulVec = %v, want [-2 -2]", dst)
	}
	y := []float64{1, 1}
	dt := make([]float64, 3)
	MulVecTrans(dt, m, y)
	want := []float64{5, 7, 9}
	for i := range want {
		if !almostEqual(dt[i], want[i], tol) {
			t.Fatalf("MulVecTrans = %v, want %v", dt, want)
		}
	}
}

// mulNew returns a·b as a freshly allocated matrix.
func mulNew(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	Mul(dst, a, b)
	return dst
}

// transpose returns mᵀ as a new matrix: the explicit-transpose oracle
// the MulTransA and Cholesky checks compare against.
func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Set(j, i, v)
		}
	}
	return t
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 4, 7)
	tt := transpose(transpose(m))
	if maxAbsDiff(m, tt) != 0 {
		t.Fatal("(mᵀ)ᵀ != m")
	}
}

func TestInverseRecoversIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, n)
		a.AddDiag(float64(n)) // keep well-conditioned
		inv := New(n, n)
		if err := Inverse(inv, a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod := mulNew(a, inv)
		if d := maxAbsDiff(prod, Identity(n)); d > 1e-8 {
			t.Fatalf("trial %d: a·a⁻¹ deviates from I by %v", trial, d)
		}
	}
}

func TestInverseAliasingSafe(t *testing.T) {
	a := NewFromData(2, 2, []float64{4, 7, 2, 6})
	want := New(2, 2)
	if err := Inverse(want, a); err != nil {
		t.Fatal(err)
	}
	if err := Inverse(a, a); err != nil { // in-place
		t.Fatal(err)
	}
	if maxAbsDiff(a, want) > tol {
		t.Fatal("in-place Inverse differs from out-of-place")
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 2, 4})
	if err := Inverse(New(2, 2), a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		spd := randomSPD(rng, n)
		l := New(n, n)
		if err := Cholesky(l, spd); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		recon := mulNew(l, transpose(l))
		if d := maxAbsDiff(recon, spd); d > 1e-8 {
			t.Fatalf("trial %d: L·Lᵀ deviates by %v", trial, d)
		}
		// Strict upper triangle must be zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("upper triangle not zeroed at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if err := Cholesky(New(2, 2), a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestAddScaledOuter(t *testing.T) {
	m := New(2, 3)
	m.AddScaledOuter(2, []float64{1, -1}, []float64{1, 2, 3})
	want := NewFromData(2, 3, []float64{2, 4, 6, -2, -4, -6})
	if maxAbsDiff(m, want) > tol {
		t.Fatalf("outer update = %v, want %v", m, want)
	}
}

func TestRidgeGram(t *testing.T) {
	a := NewFromData(3, 2, []float64{1, 0, 0, 1, 1, 1})
	g := New(2, 2)
	RidgeGram(g, a, 0.5)
	want := NewFromData(2, 2, []float64{2.5, 1, 1, 2.5})
	if maxAbsDiff(g, want) > tol {
		t.Fatalf("RidgeGram = %v, want %v", g, want)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewFromData(2, 2, []float64{1, 2, 4, 3})
	m.SymmetrizeInPlace()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("symmetrize = %v", m)
	}
}

func TestScaleAndAddDiagAndZero(t *testing.T) {
	m := Identity(3)
	m.Scale(2)
	m.AddDiag(1)
	for i := 0; i < 3; i++ {
		if m.At(i, i) != 3 {
			t.Fatalf("diag = %v, want 3", m.At(i, i))
		}
	}
	m.Zero()
	if frobeniusNorm(m) != 0 {
		t.Fatal("Zero left non-zero entries")
	}
}

func TestStringAbbreviatesLarge(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 || s == "Matrix(2x2)" {
		t.Fatalf("small String = %q", s)
	}
	big := New(20, 20)
	if s := big.String(); s != "Matrix(20x20)" {
		t.Fatalf("big String = %q", s)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestPropMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, p)
		lhs := transpose(mulNew(a, b))
		rhs := mulNew(transpose(b), transpose(a))
		return maxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sherman-Morrison consistency. For SPD P and vector h,
// P' = P − P h hᵀ P / (1 + hᵀ P h) equals (P⁻¹ + h hᵀ)⁻¹.
func TestPropShermanMorrison(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		p := randomSPD(r, n)
		h := make([]float64, n)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		// Rank-1 downdate form.
		ph := make([]float64, n)
		MulVec(ph, p, h)
		denom := 1 + Dot(h, ph)
		upd := p.Clone()
		upd.AddScaledOuter(-1/denom, ph, ph)
		// Direct form.
		pinv := New(n, n)
		if err := Inverse(pinv, p); err != nil {
			return true // skip ill-conditioned draws
		}
		pinv.AddScaledOuter(1, h, h)
		direct := New(n, n)
		if err := Inverse(direct, pinv); err != nil {
			return true
		}
		return maxAbsDiff(upd, direct) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec511x22(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 22, 511)
	x := make([]float64, 511)
	dst := make([]float64, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec(dst, m, x)
	}
}

// maxAbsDiff returns the largest absolute element-wise difference between
// a and b, for approximate-equality assertions.
func maxAbsDiff[E Element](a, b *MatrixOf[E]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		br := b.Row(i)
		for j, v := range a.Row(i) {
			if d := math.Abs(float64(v - br[j])); d > m {
				m = d
			}
		}
	}
	return m
}

// frobeniusNorm returns the Frobenius norm of m, accumulated at float64
// for every element type.
func frobeniusNorm[E Element](m *MatrixOf[E]) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}
