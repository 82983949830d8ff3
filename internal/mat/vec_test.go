package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpyScaleSubAdd(t *testing.T) {
	y := []float64{1, 1}
	AxpyVec(y, 2, []float64{3, -1})
	if y[0] != 7 || y[1] != -1 {
		t.Fatalf("Axpy = %v", y)
	}
	d := make([]float64, 2)
	SubVec(d, []float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, -2, 2}
	if got := L1Dist(a, b); got != 5 {
		t.Fatalf("L1 = %v, want 5", got)
	}
	if got := L2Dist(a, b); got != 3 {
		t.Fatalf("L2 = %v, want 3", got)
	}
	if got := SqDist(a, b); got != 9 {
		t.Fatalf("Sq = %v, want 9", got)
	}
}

func TestMeanVec(t *testing.T) {
	dst := make([]float64, 2)
	MeanVec(dst, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("MeanVec = %v", dst)
	}
}

func TestMeanVecPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanVec(make([]float64, 1), nil)
}

func TestRunningMeanUpdateMatchesBatchMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := 4
	mean := make([]float64, dim)
	var rows [][]float64
	n := 0
	for i := 0; i < 200; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		rows = append(rows, x)
		n = RunningMeanUpdate(mean, n, x)
	}
	if n != 200 {
		t.Fatalf("count = %d", n)
	}
	batch := make([]float64, dim)
	MeanVec(batch, rows)
	for j := range mean {
		if math.Abs(mean[j]-batch[j]) > 1e-10 {
			t.Fatalf("running mean %v != batch mean %v", mean, batch)
		}
	}
}

func TestEWMAUpdateConvergesToConstant(t *testing.T) {
	mean := []float64{0, 0}
	target := []float64{10, -5}
	for i := 0; i < 500; i++ {
		EWMAUpdate(mean, 0.1, target)
	}
	for j := range mean {
		if math.Abs(mean[j]-target[j]) > 1e-6 {
			t.Fatalf("EWMA did not converge: %v", mean)
		}
	}
}

func TestEWMAUpdateGammaOneTracksSample(t *testing.T) {
	mean := []float64{3, 3}
	EWMAUpdate(mean, 1, []float64{-1, 7})
	if mean[0] != -1 || mean[1] != 7 {
		t.Fatalf("γ=1 should replace mean, got %v", mean)
	}
}

func TestCopyVec(t *testing.T) {
	x := []float64{1, 2}
	c := CopyVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CopyVec must not alias")
	}
}

// Property: triangle inequality holds for both metrics.
func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		const eps = 1e-9
		return L1Dist(a, c) <= L1Dist(a, b)+L1Dist(b, c)+eps &&
			L2Dist(a, c) <= L2Dist(a, b)+L2Dist(b, c)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the running mean after k identical samples equals the sample.
func TestPropRunningMeanFixedPoint(t *testing.T) {
	f := func(v float64, k uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
			// mean·n + v overflows near MaxFloat64; out of scope for the
			// update rule, which operates on feature-scaled data.
			return true
		}
		mean := []float64{v}
		n := 1
		for i := 0; i < int(k%32); i++ {
			n = RunningMeanUpdate(mean, n, []float64{v})
		}
		return math.Abs(mean[0]-v) < 1e-9*(1+math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAllFinite places one NaN or ±Inf at every index of lengths 1–9,
// 38 and 511 — each of the four accumulators and the tail — and checks
// that finite extremes (±MaxFloat64, subnormals, −0) still pass.
func TestAllFinite(t *testing.T) {
	finite := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-0x1p-1060, math.Copysign(0, -1), 0, 1.5}
	finite32 := []float32{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
		float32(math.Copysign(0, -1)), 1.5}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 38, 511} {
		x := make([]float64, n)
		for i := range x {
			x[i] = finite[i%len(finite)]
		}
		if !AllFinite(x) {
			t.Fatalf("n=%d: finite extremes reported non-finite", n)
		}
		x32 := make([]float32, n)
		for i := range x32 {
			x32[i] = finite32[i%len(finite32)]
		}
		if !AllFinite(x32) {
			t.Fatalf("float32 n=%d: finite values reported non-finite", n)
		}
		for i := range x {
			for _, b := range bad {
				keep := x[i]
				x[i] = b
				if AllFinite(x) {
					t.Fatalf("n=%d: %v at index %d reported finite", n, b, i)
				}
				x[i] = keep
				keep32 := x32[i]
				x32[i] = float32(b)
				if AllFinite(x32) {
					t.Fatalf("float32 n=%d: %v at index %d reported finite", n, b, i)
				}
				x32[i] = keep32
			}
		}
	}
	if !AllFinite([]float64(nil)) {
		t.Fatal("empty slice reported non-finite")
	}
}
