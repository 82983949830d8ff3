package spll

import (
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// mixtureData draws from two Gaussian blobs at 0 and 6 (per dimension).
func mixtureData(r *rng.Rand, n, dims int, shift float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		base := shift
		if i%2 == 1 {
			base += 6
		}
		x := make([]float64, dims)
		r.FillNorm(x, base, 1)
		xs[i] = x
	}
	return xs
}

func newDetector(t *testing.T, seed uint64, cfg Config) *Detector {
	t.Helper()
	r := rng.New(seed)
	train := mixtureData(r, 400, 4, 0)
	if cfg.CalibrationTrials == 0 {
		cfg.CalibrationTrials = 100
	}
	d, err := New(train, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	r := rng.New(1)
	train := mixtureData(r, 50, 2, 0)
	bad := []Config{
		{Clusters: -1, BatchSize: 10},
		{BatchSize: 0},
		{BatchSize: 10, Alpha: 1.5},
		{BatchSize: 10, Ridge: -1},
	}
	for i, cfg := range bad {
		if _, err := New(train, cfg, r); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := New(train[:2], Config{Clusters: 3, BatchSize: 10}, r); err == nil {
		t.Fatal("expected error for fewer samples than clusters")
	}
}

func TestStatisticNearDimensionUnderNull(t *testing.T) {
	d := newDetector(t, 2, Config{Clusters: 2, BatchSize: 100})
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		d.Observe(mixtureData(r, 1, 4, 0)[0])
	}
	// min-Mahalanobis² averages ≈ D for in-distribution data.
	if s := d.lastStat; s < 1 || s > 8 {
		t.Fatalf("null statistic %v, want ≈4", s)
	}
}

func TestNoFalseAlarmsOnStationaryStream(t *testing.T) {
	d := newDetector(t, 4, Config{Clusters: 2, BatchSize: 80, Alpha: 0.01})
	r := rng.New(5)
	checked, detections := 0, 0
	for i := 0; i < 2400; i++ {
		c, dd := d.Observe(mixtureData(r, 1, 4, 0)[0])
		if c {
			checked++
		}
		if dd {
			detections++
		}
	}
	if checked != 30 {
		t.Fatalf("checked %d batches", checked)
	}
	if detections > 3 {
		t.Fatalf("%d false alarms in %d batches", detections, checked)
	}
}

func TestDetectsShiftedDistribution(t *testing.T) {
	d := newDetector(t, 6, Config{Clusters: 2, BatchSize: 80})
	r := rng.New(7)
	var flagged bool
	for i := 0; i < 80; i++ {
		_, dd := d.Observe(mixtureData(r, 1, 4, 3)[0])
		flagged = flagged || dd
	}
	if !flagged {
		lo, hi := d.Thresholds()
		t.Fatalf("shift missed: stat %v, thresholds (%v, %v)", d.lastStat, lo, hi)
	}
	if d.Detections() != 1 || d.Batches() != 1 {
		t.Fatalf("counters: %d detections, %d batches", d.Detections(), d.Batches())
	}
}

func TestTwoSidedFlagsCollapse(t *testing.T) {
	cfg := Config{Clusters: 2, BatchSize: 80, TwoSided: true}
	d := newDetector(t, 8, cfg)
	// A collapsed distribution (all samples exactly at a cluster mean)
	// drives the statistic to ≈0, below the low threshold.
	mean := d.Means()[0]
	var flagged bool
	for i := 0; i < 80; i++ {
		x := make([]float64, len(mean))
		copy(x, mean)
		_, dd := d.Observe(x)
		flagged = flagged || dd
	}
	if !flagged {
		lo, _ := d.Thresholds()
		t.Fatalf("collapse missed: stat %v vs lo %v", d.lastStat, lo)
	}
}

func TestObservePanicsOnBadDims(t *testing.T) {
	d := newDetector(t, 9, Config{Clusters: 2, BatchSize: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Observe([]float64{1})
}

func TestDegenerateTrainingDataSurvivesRegularisation(t *testing.T) {
	r := rng.New(10)
	// Constant feature 0 makes the raw covariance singular.
	train := make([][]float64, 100)
	for i := range train {
		train[i] = []float64{7, r.Norm(), r.Norm()}
	}
	d, err := New(train, Config{Clusters: 2, BatchSize: 20, CalibrationTrials: 50}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Must produce finite statistics.
	for i := 0; i < 20; i++ {
		d.Observe([]float64{7, r.Norm(), r.Norm()})
	}
	if math.IsNaN(d.lastStat) || math.IsInf(d.lastStat, 0) {
		t.Fatalf("statistic = %v", d.lastStat)
	}
}

func TestMemoryBytesDominatedByCovariance(t *testing.T) {
	r := rng.New(11)
	small, err := New(mixtureData(r, 100, 4, 0), Config{Clusters: 2, BatchSize: 20, CalibrationTrials: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(mixtureData(r, 100, 32, 0), Config{Clusters: 2, BatchSize: 20, CalibrationTrials: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Covariance grows quadratically with D: 32² vs 4² should dominate.
	if big.MemoryBytes() < 16*small.MemoryBytes()/4 {
		t.Fatalf("memory %d vs %d does not reflect D² covariance", big.MemoryBytes(), small.MemoryBytes())
	}
	if big.BatchSize() != 20 {
		t.Fatal("BatchSize accessor")
	}
}

func TestOpsCounting(t *testing.T) {
	d := newDetector(t, 12, Config{Clusters: 2, BatchSize: 4})
	var c opcount.Counter
	d.SetOps(&c)
	r := rng.New(13)
	for i := 0; i < 4; i++ {
		d.Observe(mixtureData(r, 1, 4, 0)[0])
	}
	if c.MulAdd == 0 {
		t.Fatal("batch test should count triangular-solve MACs")
	}
}

func TestRetrainStopsRefiring(t *testing.T) {
	d := newDetector(t, 20, Config{Clusters: 2, BatchSize: 80})
	r := rng.New(21)
	fired := 0
	for _, x := range mixtureData(r, 320, 4, 3) {
		if _, dd := d.Observe(x); dd {
			fired++
		}
	}
	if fired < 3 {
		t.Fatalf("stale model fired only %d/4 batches", fired)
	}
	if err := d.Retrain(mixtureData(r, 400, 4, 3), r); err != nil {
		t.Fatal(err)
	}
	fired = 0
	for _, x := range mixtureData(r, 320, 4, 3) {
		if _, dd := d.Observe(x); dd {
			fired++
		}
	}
	if fired > 1 {
		t.Fatalf("retrained model still fired %d/4 batches", fired)
	}
}

func TestRetrainErrors(t *testing.T) {
	d := newDetector(t, 22, Config{Clusters: 3, BatchSize: 20})
	r := rng.New(23)
	if err := d.Retrain(mixtureData(r, 2, 4, 0), r); err == nil {
		t.Fatal("expected too-few-samples error")
	}
	if err := d.Retrain(mixtureData(r, 50, 2, 0), r); err == nil {
		t.Fatal("expected dimension error")
	}
}
