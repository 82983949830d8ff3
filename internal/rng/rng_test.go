package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Consuming the child must not change the parent's future outputs.
	ref := New(7)
	_ = ref.Uint64() // the Split draw
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("parent stream perturbed by child at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	// Each bucket should be within 10% of n/7.
	want := float64(n) / 7
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d count %d far from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 300000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestNormalShiftScale(t *testing.T) {
	r := New(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Fatalf("Normal(5,2) mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformityFirstElement(t *testing.T) {
	r := New(9)
	counts := make([]int, 5)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[r.Perm(5)[0]]++
	}
	want := float64(trials) / 5
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("Perm first-element bucket %d = %d, want ≈%v", i, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", p)
	}
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
}

func TestFillHelpers(t *testing.T) {
	r := New(13)
	u := make([]float64, 1000)
	r.FillUniform(u, -2, 3)
	for _, v := range u {
		if v < -2 || v >= 3 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
	nrm := make([]float64, 1000)
	r.FillNorm(nrm, 0, 1)
	var s float64
	for _, v := range nrm {
		s += v
	}
	if math.Abs(s/1000) > 0.15 {
		t.Fatalf("FillNorm mean too far from 0: %v", s/1000)
	}
}

// Property: Intn(n) always lands in [0, n).
func TestPropIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Split children from distinct draws behave as distinct streams.
func TestPropSplitChildrenDiffer(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(seed)
		a, b := p.Split(), p.Split()
		same := 0
		for i := 0; i < 32; i++ {
			if a.Uint64() == b.Uint64() {
				same++
			}
		}
		return same == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}
