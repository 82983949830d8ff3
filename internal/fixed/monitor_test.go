package fixed

import (
	"math"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
)

const (
	monDims    = 6
	monClasses = 2
)

func monSample(r *rng.Rand, c int, shift float64) []float64 {
	x := make([]float64, monDims)
	for j := range x {
		x[j] = r.Normal(float64(c)*4+shift, 0.25)
	}
	return x
}

// calibratedFloatDetector trains and calibrates the float pipeline the
// quantised monitor derives from.
func calibratedFloatDetector(t testing.TB, seed uint64) (*core.Detector, *rng.Rand) {
	t.Helper()
	m, err := model.New(model.Config{Classes: monClasses, Inputs: monDims, Hidden: 8, Ridge: 1e-2, Metric: oselm.L1Mean}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 99)
	xs := make([][]float64, 0, 400)
	labels := make([]int, 0, 400)
	var tail stats.Running
	for i := 0; i < 400; i++ {
		c := i % monClasses
		x := monSample(r, c, 0)
		_, score := m.Predict(x)
		if i >= 200 {
			tail.Observe(score)
		}
		m.Train(x, c)
		xs = append(xs, x)
		labels = append(labels, c)
	}
	cfg := core.DefaultConfig(30)
	cfg.ErrorThreshold = tail.Mean() + 2*tail.Std()
	det, err := core.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Calibrate(xs, labels); err != nil {
		t.Fatal(err)
	}
	return det, r
}

func TestQuantizedScoresTrackFloat(t *testing.T) {
	det, r := calibratedFloatDetector(t, 1)
	mon := QuantizeDetector(det)
	maxRel := 0.0
	for i := 0; i < 100; i++ {
		c := i % monClasses
		x := monSample(r, c, 0)
		_, fScore := det.Model().Predict(x)
		qScore := mon.Process(x).Score
		rel := math.Abs(qScore-fScore) / (fScore + 1e-6)
		if rel > maxRel {
			maxRel = rel
		}
	}
	// L1-mean scores are O(0.1); quantisation noise must stay small
	// relative to them.
	if maxRel > 0.2 {
		t.Fatalf("worst relative score error %v", maxRel)
	}
}

func TestQuantizedLabelsAgreeWithFloat(t *testing.T) {
	det, r := calibratedFloatDetector(t, 2)
	mon := QuantizeDetector(det)
	agree := 0
	const n = 400
	for i := 0; i < n; i++ {
		c := i % monClasses
		x := monSample(r, c, 0)
		fLabel, _ := det.Model().Predict(x)
		if mon.Process(x).Label == fLabel {
			agree++
		}
	}
	if agree < n*99/100 {
		t.Fatalf("label agreement %d/%d", agree, n)
	}
}

func TestQuantizedMonitorDetectsDrift(t *testing.T) {
	det, r := calibratedFloatDetector(t, 3)
	mon := QuantizeDetector(det)
	// Stationary phase: no detection.
	for i := 0; i < 300; i++ {
		if mon.Process(monSample(r, i%monClasses, 0)).DriftDetected {
			t.Fatalf("false positive at %d", i)
		}
	}
	// Drift phase.
	detected := -1
	for i := 0; i < 2000 && detected < 0; i++ {
		if mon.Process(monSample(r, i%monClasses, 4)).DriftDetected {
			detected = i
		}
	}
	if detected < 0 {
		t.Fatal("quantised monitor never detected the drift")
	}
	if len(mon.Events()) != 1 {
		t.Fatalf("events %v", mon.Events())
	}
	// While pending, no further detections; predictions continue and the
	// phase reports the host-side adaptation in flight.
	for i := 0; i < 200; i++ {
		res := mon.Process(monSample(r, i%monClasses, 4))
		if res.DriftDetected {
			t.Fatal("detection while pending")
		}
		if res.Phase != core.Reconstructing {
			t.Fatalf("phase while pending = %v, want %v", res.Phase, core.Reconstructing)
		}
	}
}

func TestQuantizedMemorySmallerThanFloat(t *testing.T) {
	det, _ := calibratedFloatDetector(t, 4)
	mon := QuantizeDetector(det)
	if mon.MemoryBytes() >= det.MemoryBytes()/2+64 {
		t.Fatalf("quantised footprint %d not clearly below half of %d", mon.MemoryBytes(), det.MemoryBytes())
	}
}

func TestQuantizedOpsCounted(t *testing.T) {
	det, r := calibratedFloatDetector(t, 5)
	mon := QuantizeDetector(det)
	var ops opcount.Counter
	mon.SetOps(&ops)
	mon.Process(monSample(r, 0, 0))
	if ops.MulAdd == 0 {
		t.Fatal("integer MACs not counted")
	}
}

// TestProcessPanicsOnBadDims pins the per-sample width check: a short
// sample must not be scored against stale buffer features, nor a long
// one truncated.
func TestProcessPanicsOnBadDims(t *testing.T) {
	det, _ := calibratedFloatDetector(t, 6)
	mon := QuantizeDetector(det)
	for _, width := range []int{2, monDims - 1, monDims + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d: expected panic", width)
				}
			}()
			mon.Process(make([]float64, width))
		}()
	}
	if h := mon.Health(); h.SamplesSeen != 0 {
		t.Fatalf("%d samples consumed by rejected widths", h.SamplesSeen)
	}
}

// TestMonitorBatchMemoryAccounted: the monitor keeps no lazily
// allocated staging, so its audit is fixed when it is quantised and a
// trace through monitoring, a check window and a detection adds
// nothing.
func TestMonitorBatchMemoryAccounted(t *testing.T) {
	det, r := calibratedFloatDetector(t, 15)
	mon := QuantizeDetector(det)
	before := mon.MemoryBytes()
	for i := 0; i < 300; i++ {
		shift := 0.0
		if i >= 100 {
			shift = 4
		}
		mon.Process(monSample(r, i%monClasses, shift))
	}
	if len(mon.Events()) == 0 {
		t.Fatal("trace crossed no detection")
	}
	if after := mon.MemoryBytes(); after != before {
		t.Fatalf("MemoryBytes %d after the trace, want %d", after, before)
	}
}

func TestMonitorProcessZeroAllocs(t *testing.T) {
	det, r := calibratedFloatDetector(t, 13)
	mon := QuantizeDetector(det)
	x := monSample(r, 0, 0)
	if allocs := testing.AllocsPerRun(100, func() { mon.Process(x) }); allocs != 0 {
		t.Fatalf("Process allocates %v per call, want 0", allocs)
	}
}
