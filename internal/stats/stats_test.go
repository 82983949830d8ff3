package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v, want 5", mean)
	}
	if math.Abs(std-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", std)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	mean, std := MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatalf("empty MeanStd = %v, %v", mean, std)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must be untouched.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	for _, q := range []float64{0, 0.1, 0.33, 0.5, 0.9, 1} {
		if a, b := Quantile(xs, q), QuantileSorted(xs, q); a != b {
			t.Fatalf("q=%v: Quantile %v != QuantileSorted %v", q, a, b)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// normalCDF returns P(Z ≤ x) for a standard normal Z: the oracle
// NormalQuantile is checked against.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.8413447461},
	}
	for _, c := range cases {
		if got := normalCDF(c.x); math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("normalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		x := NormalQuantile(p)
		if got := normalCDF(x); math.Abs(got-p) > 1e-9 {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalQuantile(0)
}

func TestChiSquareStatistic(t *testing.T) {
	obs := []int{10, 20, 30}
	exp := []float64{20, 20, 20}
	// (10-20)^2/20 + 0 + (30-20)^2/20 = 5 + 0 + 5 = 10
	if got := ChiSquareStatistic(obs, exp); math.Abs(got-10) > 1e-12 {
		t.Fatalf("chi2 = %v, want 10", got)
	}
	// Zero-expectation bins skipped.
	if got := ChiSquareStatistic([]int{5}, []float64{0}); got != 0 {
		t.Fatalf("chi2 with zero expectation = %v", got)
	}
}

func TestTotalVariation(t *testing.T) {
	obs := []int{50, 50}
	if got := TotalVariation(obs, []float64{0.5, 0.5}); got != 0 {
		t.Fatalf("TV of matching dist = %v", got)
	}
	if got := TotalVariation([]int{100, 0}, []float64{0.5, 0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("TV = %v, want 0.5", got)
	}
	if got := TotalVariation([]int{0, 0}, []float64{0.5, 0.5}); got != 0 {
		t.Fatalf("TV of empty = %v", got)
	}
}

func TestMovingAccuracy(t *testing.T) {
	m := NewMovingAccuracy(4)
	if m.Value() != 0 || m.Count() != 0 {
		t.Fatal("fresh tracker should be empty")
	}
	m.Observe(true)
	m.Observe(true)
	m.Observe(false)
	if got := m.Value(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("partial window accuracy = %v", got)
	}
	m.Observe(false)
	m.Observe(false) // evicts the first true
	m.Observe(false) // evicts the second true
	if got := m.Value(); got != 0 {
		t.Fatalf("full-window accuracy = %v, want 0", got)
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
}

func TestMovingAccuracySlidesCorrectly(t *testing.T) {
	m := NewMovingAccuracy(2)
	seq := []bool{true, false, true, true}
	m.Observe(seq[0])
	m.Observe(seq[1])
	m.Observe(seq[2]) // window = {false, true}
	if m.Value() != 0.5 {
		t.Fatalf("value = %v, want 0.5", m.Value())
	}
	m.Observe(seq[3]) // window = {true, true}
	if m.Value() != 1 {
		t.Fatalf("value = %v, want 1", m.Value())
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Running
	xs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*3 + 7
		xs = append(xs, v)
		r.Observe(v)
	}
	mean, std := MeanStd(xs)
	if math.Abs(r.Mean()-mean) > 1e-9 {
		t.Fatalf("running mean %v vs batch %v", r.Mean(), mean)
	}
	if math.Abs(r.Std()-std) > 1e-9 {
		t.Fatalf("running std %v vs batch %v", r.Std(), std)
	}
	if r.N() != 1000 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestRunningSmallCounts(t *testing.T) {
	var r Running
	if r.Var() != 0 {
		t.Fatal("variance of empty accumulator should be 0")
	}
	r.Observe(5)
	if r.Mean() != 5 || r.Var() != 0 {
		t.Fatalf("single obs: mean=%v var=%v", r.Mean(), r.Var())
	}
	r.Observe(7)
	if r.Var() != 1 {
		t.Fatalf("var = %v, want 1", r.Var())
	}
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestRunningMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all, a, b Running
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 10
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Fatalf("merge mean/var %v/%v vs %v/%v", a.Mean(), a.Var(), all.Mean(), all.Var())
	}
	// Merging into empty copies.
	var empty Running
	empty.Merge(&all)
	if empty.N() != all.N() || empty.Mean() != all.Mean() {
		t.Fatal("merge into empty should copy")
	}
	// Merging empty is a no-op.
	n := all.N()
	all.Merge(&Running{})
	if all.N() != n {
		t.Fatal("merging empty changed state")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.999} {
		h.Observe(v)
	}
	counts := h.Counts()
	want := []int{2, 1, 1, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Observe(-100)
	h.Observe(100)
	c := h.Counts()
	if c[0] != 1 || c[1] != 1 {
		t.Fatalf("clamped counts = %v", c)
	}
}

func TestHistogramCountsDroppedNaN(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Observe(0.25)
	h.Observe(math.NaN())
	h.Observe(math.NaN())
	if got := h.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if h.Total() != 1 {
		t.Fatalf("Total = %d, want 1 (NaN must not be binned)", h.Total())
	}
	if c := h.Counts(); c[0] != 1 || c[1] != 0 {
		t.Fatalf("counts = %v: NaN leaked into a bin", c)
	}
	h.Reset()
	if h.Dropped() != 0 || h.Total() != 0 {
		t.Fatalf("Reset must clear the dropped counter, got %d/%d", h.Dropped(), h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: Welford mean always lies within [min, max] of the data.
func TestPropWelfordMeanBounded(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewSource(seed))
		var run Running
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := r.NormFloat64() * 100
			run.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return run.Mean() >= lo-1e-9 && run.Mean() <= hi+1e-9 && run.Var() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: merge order does not matter.
func TestPropMergeCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a1, b1, a2, b2 Running
		for i := 0; i < 20; i++ {
			a1.Observe(r.Float64())
		}
		for i := 0; i < 30; i++ {
			b1.Observe(r.Float64() * 5)
		}
		a2, b2 = a1, b1
		a1.Merge(&b1) // a ∪ b
		b2.Merge(&a2) // b ∪ a
		return math.Abs(a1.Mean()-b2.Mean()) < 1e-9 &&
			math.Abs(a1.Var()-b2.Var()) < 1e-9 && a1.N() == b2.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram total always equals number of observations and
// the bin counts sum to it.
func TestPropHistogramConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 8)
		for i := 0; i < n; i++ {
			h.Observe(r.NormFloat64())
		}
		if h.Total() != n {
			return false
		}
		var sum int
		for _, c := range h.Counts() {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
