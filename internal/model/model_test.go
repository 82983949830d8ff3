package model

import (
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// twoClassData draws samples from two well-separated Gaussian blobs in
// dim dimensions.
func twoClassData(r *rng.Rand, n, dim int) (xs [][]float64, labels []int) {
	centres := [][]float64{make([]float64, dim), make([]float64, dim)}
	for j := range centres[1] {
		centres[1][j] = 5
	}
	for i := 0; i < n; i++ {
		c := i % 2
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.Normal(centres[c][j], 0.3)
		}
		xs = append(xs, x)
		labels = append(labels, c)
	}
	return xs, labels
}

func newTrained(t *testing.T, seed uint64) (*Multi, [][]float64, []int) {
	t.Helper()
	m, err := New(Config{Classes: 2, Inputs: 4, Hidden: 6, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := twoClassData(rng.New(seed+1), 1000, 4)
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	return m, xs, labels
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Classes: 0, Inputs: 2, Hidden: 2}, rng.New(1)); err == nil {
		t.Fatal("expected error for zero classes")
	}
	if _, err := New(Config{Classes: 2, Inputs: 0, Hidden: 2}, rng.New(1)); err == nil {
		t.Fatal("expected propagated instance config error")
	}
}

func TestPredictSeparatesClasses(t *testing.T) {
	m, _, _ := newTrained(t, 10)
	r := rng.New(99)
	correct := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		c := i % 2
		x := make([]float64, 4)
		for j := range x {
			x[j] = r.Normal(float64(c)*5, 0.3)
		}
		got, score := m.Predict(x)
		if got == c {
			correct++
		}
		if score < 0 {
			t.Fatalf("negative anomaly score %v", score)
		}
	}
	if acc := float64(correct) / trials; acc < 0.97 {
		t.Fatalf("accuracy %v on separable blobs, want ≥ 0.97", acc)
	}
}

func TestScoresViewMatchesPredict(t *testing.T) {
	m, xs, _ := newTrained(t, 11)
	label, score := m.Predict(xs[0])
	if got := m.Instance(label).Score(xs[0]); got != score {
		t.Fatalf("winning score %v, instance %d scores %v", score, label, got)
	}
	if m.Instance(1-label).Score(xs[0]) < score {
		t.Fatal("argmin violated")
	}
}

func TestTrainClosestUpdatesWinningInstance(t *testing.T) {
	m, err := New(Config{Classes: 2, Inputs: 3, Hidden: 4}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	before0 := m.Instance(0).SamplesSeen()
	before1 := m.Instance(1).SamplesSeen()
	label, _ := m.TrainClosest([]float64{1, 2, 3})
	if got := m.Instance(label).SamplesSeen(); got != beforeFor(label, before0, before1)+1 {
		t.Fatalf("winning instance not trained: %d", got)
	}
	if got := m.Instance(1 - label).SamplesSeen(); got != beforeFor(1-label, before0, before1) {
		t.Fatal("losing instance must not be trained")
	}
}

func beforeFor(label, b0, b1 int) int {
	if label == 0 {
		return b0
	}
	return b1
}

func TestInitSequentialErrors(t *testing.T) {
	m, _ := New(Config{Classes: 2, Inputs: 2, Hidden: 2}, rng.New(13))
	if err := m.InitSequential([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := m.InitSequential([][]float64{{1, 2}}, []int{7}); err == nil {
		t.Fatal("expected out-of-range label error")
	}
}

func TestInitBatchMatchesSequentialSeparation(t *testing.T) {
	m, err := New(Config{Classes: 2, Inputs: 4, Hidden: 6, Ridge: 1e-2}, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := twoClassData(rng.New(15), 600, 4)
	if err := m.InitBatch(xs, labels); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		if got, _ := m.Predict(x); got == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.97 {
		t.Fatalf("batch-init accuracy %v", acc)
	}
}

func TestInitBatchErrors(t *testing.T) {
	m, _ := New(Config{Classes: 2, Inputs: 2, Hidden: 2}, rng.New(16))
	if err := m.InitBatch([][]float64{{1, 2}}, []int{-1}); err == nil {
		t.Fatal("expected label range error")
	}
	if err := m.InitBatch([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("expected mismatch error")
	}
	// One empty class is fine.
	if err := m.InitBatch([][]float64{{1, 2}, {3, 4}}, []int{0, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestResetAffectsAllInstances(t *testing.T) {
	m, xs, labels := newTrained(t, 17)
	_ = labels
	before0 := m.Instance(0).Score(xs[0])
	m.Reset()
	if m.Instance(0).SamplesSeen() != 0 || m.Instance(1).SamplesSeen() != 0 {
		t.Fatal("Reset left samples")
	}
	after0 := m.Instance(0).Score(xs[0])
	if after0 <= before0 {
		t.Fatalf("post-reset score %v should exceed trained %v", after0, before0)
	}
}

func TestSetOpsCountsAcrossInstances(t *testing.T) {
	m, _ := New(Config{Classes: 3, Inputs: 4, Hidden: 2}, rng.New(18))
	var c opcount.Counter
	m.SetOps(&c)
	m.Predict([]float64{1, 2, 3, 4})
	// 3 instances × (hidden 2×4 + output 2×4 MACs) plus residual MACs.
	if c.MulAdd == 0 || c.Cmp != 2 {
		t.Fatalf("ops = %+v", c)
	}
}

func TestMemoryBytesGrowsWithClasses(t *testing.T) {
	one, _ := New(Config{Classes: 1, Inputs: 8, Hidden: 4}, rng.New(19))
	three, _ := New(Config{Classes: 3, Inputs: 8, Hidden: 4}, rng.New(19))
	if three.MemoryBytes() <= 2*one.MemoryBytes() {
		t.Fatalf("memory scaling looks wrong: 1→%d, 3→%d", one.MemoryBytes(), three.MemoryBytes())
	}
	if one.Classes() != 1 || three.Classes() != 3 {
		t.Fatal("Classes()")
	}
}
