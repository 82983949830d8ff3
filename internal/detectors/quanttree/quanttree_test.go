package quanttree

import (
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// gaussData draws n D-dimensional normal samples centred at mean.
func gaussData(r *rng.Rand, n, dims int, mean float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dims)
		r.FillNorm(x, mean, 1)
		xs[i] = x
	}
	return xs
}

func newTree(t *testing.T, seed uint64, cfg Config) *Tree {
	t.Helper()
	r := rng.New(seed)
	train := gaussData(r, 500, 4, 0)
	// Fast calibration for tests.
	if cfg.CalibrationTrials == 0 {
		cfg.CalibrationTrials = 400
	}
	tree, err := New(train, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestConfigValidation(t *testing.T) {
	r := rng.New(1)
	train := gaussData(r, 100, 2, 0)
	bad := []Config{
		{Bins: 1, BatchSize: 50},
		{Bins: 8, BatchSize: 4},
		{Bins: 8, BatchSize: 50, Alpha: 2},
	}
	for i, cfg := range bad {
		if _, err := New(train, cfg, r); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := New(gaussData(r, 4, 2, 0), Config{Bins: 8, BatchSize: 16}, r); err == nil {
		t.Fatal("expected error for too little training data")
	}
}

func TestBinsPartitionTrainingDataEvenly(t *testing.T) {
	tree := newTree(t, 2, Config{Bins: 8, BatchSize: 64})
	r := rng.New(3)
	train := gaussData(r, 4000, 4, 0)
	counts := make([]int, 8)
	for _, x := range train {
		b := tree.Bin(x)
		if b < 0 || b >= 8 {
			t.Fatalf("bin %d out of range", b)
		}
		counts[b]++
	}
	// In-distribution data should land roughly uniformly (±50% slack —
	// the tree was built on a different draw of the same distribution).
	want := 4000 / 8
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bin %d holds %d of 4000, want ≈%d: %v", i, c, want, counts)
		}
	}
}

func TestNoFalseAlarmsOnStationaryStream(t *testing.T) {
	tree := newTree(t, 4, Config{Bins: 8, BatchSize: 100, Alpha: 0.01})
	r := rng.New(5)
	checked, detections := 0, 0
	for i := 0; i < 4000; i++ {
		c, d := tree.Observe(gaussData(r, 1, 4, 0)[0])
		if c {
			checked++
		}
		if d {
			detections++
		}
	}
	if checked != 40 {
		t.Fatalf("checked %d batches, want 40", checked)
	}
	// α=1% per batch: expect ≈0–2 false alarms over 40 batches.
	if detections > 3 {
		t.Fatalf("%d false alarms over %d batches", detections, checked)
	}
	if tree.Batches() != checked || tree.Detections() != detections {
		t.Fatal("counters disagree with observations")
	}
}

func TestDetectsShiftedDistribution(t *testing.T) {
	tree := newTree(t, 6, Config{Bins: 8, BatchSize: 100})
	r := rng.New(7)
	// One full drifted batch must flag.
	var flagged bool
	for i := 0; i < 100; i++ {
		_, d := tree.Observe(gaussData(r, 1, 4, 3)[0])
		flagged = flagged || d
	}
	if !flagged {
		t.Fatalf("shifted batch not detected (stat %v vs threshold %v)", tree.lastStat, tree.Threshold())
	}
}

func TestTotalVariationStatistic(t *testing.T) {
	tree := newTree(t, 8, Config{Bins: 8, BatchSize: 100, Statistic: TotalVariation})
	r := rng.New(9)
	var flagged bool
	for i := 0; i < 100; i++ {
		_, d := tree.Observe(gaussData(r, 1, 4, 3)[0])
		flagged = flagged || d
	}
	if !flagged {
		t.Fatal("TV statistic missed the shift")
	}
	if Pearson.String() != "pearson" || TotalVariation.String() != "tv" {
		t.Fatal("statistic names")
	}
}

func TestBatchBufferResetsAfterTest(t *testing.T) {
	tree := newTree(t, 10, Config{Bins: 4, BatchSize: 10})
	r := rng.New(11)
	for i := 0; i < 9; i++ {
		tree.Observe(gaussData(r, 1, 4, 0)[0])
	}
	if len(tree.Batch()) != 9 {
		t.Fatalf("buffer length %d", len(tree.Batch()))
	}
	tree.Observe(gaussData(r, 1, 4, 0)[0])
	if len(tree.Batch()) != 0 {
		t.Fatal("buffer not cleared after batch test")
	}
}

func TestObservePanicsOnBadDims(t *testing.T) {
	tree := newTree(t, 12, Config{Bins: 4, BatchSize: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Observe([]float64{1})
}

func TestThresholdGrowsWithSmallerAlpha(t *testing.T) {
	loose := newTree(t, 13, Config{Bins: 8, BatchSize: 100, Alpha: 0.2})
	strict := newTree(t, 13, Config{Bins: 8, BatchSize: 100, Alpha: 0.005})
	if strict.Threshold() <= loose.Threshold() {
		t.Fatalf("threshold(α=0.005)=%v should exceed threshold(α=0.2)=%v", strict.Threshold(), loose.Threshold())
	}
}

func TestMemoryBytesDominatedByBatchBuffer(t *testing.T) {
	small := newTree(t, 14, Config{Bins: 4, BatchSize: 16})
	big := newTree(t, 14, Config{Bins: 4, BatchSize: 256})
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatal("memory must grow with batch size")
	}
	if small.BatchSize() != 16 || big.BatchSize() != 256 {
		t.Fatal("BatchSize accessor")
	}
}

func TestOpsCounting(t *testing.T) {
	tree := newTree(t, 15, Config{Bins: 4, BatchSize: 10})
	var c opcount.Counter
	tree.SetOps(&c)
	r := rng.New(16)
	tree.Observe(gaussData(r, 1, 4, 0)[0])
	if c.Cmp == 0 {
		t.Fatal("bin routing should count comparisons")
	}
}

func TestRetrainStopsRefiring(t *testing.T) {
	tree := newTree(t, 20, Config{Bins: 8, BatchSize: 100})
	r := rng.New(21)
	// Drifted stream: the stale tree fires on (almost) every batch.
	fired := 0
	for i := 0; i < 400; i++ {
		if _, d := tree.Observe(gaussData(r, 1, 4, 3)[0]); d {
			fired++
		}
	}
	if fired < 3 {
		t.Fatalf("stale tree fired only %d/4 batches", fired)
	}
	// Re-baseline on the drifted distribution: firing must stop.
	if err := tree.Retrain(gaussData(r, 500, 4, 3), r); err != nil {
		t.Fatal(err)
	}
	fired = 0
	for i := 0; i < 400; i++ {
		if _, d := tree.Observe(gaussData(r, 1, 4, 3)[0]); d {
			fired++
		}
	}
	if fired > 1 {
		t.Fatalf("retrained tree still fired %d/4 batches", fired)
	}
}

func TestRetrainErrors(t *testing.T) {
	tree := newTree(t, 22, Config{Bins: 8, BatchSize: 100})
	r := rng.New(23)
	if err := tree.Retrain(gaussData(r, 3, 4, 0), r); err == nil {
		t.Fatal("expected too-few-samples error")
	}
	if err := tree.Retrain(gaussData(r, 100, 2, 0), r); err == nil {
		t.Fatal("expected dimension error")
	}
}
