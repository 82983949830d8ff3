package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"edgedrift/internal/health"
	"edgedrift/internal/model"
	"edgedrift/internal/rng"
)

// benchCalibrated is newCalibrated for benchmarks (testing.B has no
// access to the *testing.T-typed helper).
func benchCalibrated(b *testing.B, cfg Config) (*Detector, *rng.Rand) {
	b.Helper()
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1001)
	xs, labels := trainSet(r, 400, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		b.Fatal(err)
	}
	d, err := New(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		b.Fatal(err)
	}
	return d, r
}

// driftStage fires a drift every k-th sample, cycling its phase so
// transition counting has something to observe.
type driftStage struct {
	n     int
	every int
}

func (d *driftStage) Process(x []float64) Result {
	d.n++
	r := Result{Score: x[0], Phase: Monitoring}
	if d.every > 0 && d.n%d.every == 0 {
		r.DriftDetected = true
		r.Phase = Reconstructing
	}
	return r
}

func (d *driftStage) MemoryBytes() int { return 8 }

func (d *driftStage) Health() health.Snapshot {
	return health.Snapshot{SamplesSeen: d.n, PFinite: true, Phase: "monitoring"}
}

func (d *driftStage) ThetaError() float64 { return 0.75 }

// echoStage is a minimal Streaming stage with no capabilities: it
// scores each sample by its first feature and stays in Monitoring.
type echoStage struct{ n int }

func (e *echoStage) Process(x []float64) Result {
	e.n++
	return Result{Score: x[0], Phase: Monitoring}
}

func (e *echoStage) MemoryBytes() int { return 8 }

func (e *echoStage) Health() health.Snapshot {
	return health.Snapshot{SamplesSeen: e.n, PFinite: true, Phase: "monitoring"}
}

func feed(s Streaming, n int) {
	x := []float64{0.5}
	for i := 0; i < n; i++ {
		s.Process(x)
	}
}

func TestInstrumentedPassthrough(t *testing.T) {
	ref := &driftStage{every: 5}
	in := NewInstrumented(&driftStage{every: 5}, InstrumentConfig{StreamID: "s"})
	x := []float64{2}
	for i := 0; i < 23; i++ {
		want := ref.Process(x)
		if got := in.Process(x); got != want {
			t.Fatalf("sample %d: instrumented result %+v differs from direct %+v", i, got, want)
		}
	}
	if in.Health().SamplesSeen != 23 {
		t.Fatal("Health must forward the wrapped stage's snapshot")
	}
}

func TestInstrumentedCounters(t *testing.T) {
	in := NewInstrumented(&driftStage{every: 5}, InstrumentConfig{StreamID: "s"})
	feed(in, 20)
	m := in.Metrics()
	if m.StreamID != "s" || m.Samples != 20 || m.Drifts != 4 {
		t.Fatalf("metrics = %+v, want 20 samples, 4 drifts on stream s", m)
	}
	// Phase flips monitoring→reconstructing and back on every 5th sample:
	// samples 5,10,15,20 flip out, 6,11,16 flip back — 7 transitions.
	if m.PhaseTransitions != 7 {
		t.Fatalf("phase transitions = %d, want 7", m.PhaseTransitions)
	}
	if m.PhaseSamples[Monitoring] != 16 || m.PhaseSamples[Reconstructing] != 4 {
		t.Fatalf("phase samples = %v", m.PhaseSamples)
	}
	// Timing is off by default: no latency observations.
	if m.Latency.Count != 0 {
		t.Fatalf("latency sampled %d times with SampleEvery=0, want 0", m.Latency.Count)
	}
}

func TestInstrumentedSampledLatency(t *testing.T) {
	in := NewInstrumented(&driftStage{}, InstrumentConfig{SampleEvery: 4})
	feed(in, 17)
	// Samples 0,4,8,12,16 are timed.
	if got := in.Metrics().Latency.Count; got != 5 {
		t.Fatalf("latency observations = %d, want 5", got)
	}
}

func TestInstrumentedTraceRing(t *testing.T) {
	in := NewInstrumented(&driftStage{every: 2}, InstrumentConfig{StreamID: "ring", TraceDepth: 4})
	feed(in, 6) // drifts at 0-based indices 1, 3, 5
	tr := in.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tr))
	}
	wantIdx := []uint64{1, 3, 5}
	for i, ev := range tr {
		if ev.Index != wantIdx[i] || ev.StreamID != "ring" || ev.Score != 0.5 || ev.Phase != Reconstructing {
			t.Fatalf("trace[%d] = %+v", i, ev)
		}
		// The wrapped stage exposes ThetaError; it must be stamped in.
		if ev.ThetaError != 0.75 {
			t.Fatalf("trace[%d].ThetaError = %v, want 0.75", i, ev.ThetaError)
		}
	}

	// Overflow: the ring keeps exactly the last TraceDepth events.
	feed(in, 100) // many more drifts
	tr = in.Trace()
	if len(tr) != 4 {
		t.Fatalf("trace length after overflow = %d, want cap 4", len(tr))
	}
	// Oldest-first ordering: strictly increasing indices ending at the
	// final drift (sample 105 → 0-based index 105 fires at n%2==0 → index 105).
	for i := 1; i < len(tr); i++ {
		if tr[i].Index != tr[i-1].Index+2 {
			t.Fatalf("trace not oldest-first contiguous: %+v", tr)
		}
	}
	if last := tr[len(tr)-1].Index; last != 105 {
		t.Fatalf("newest trace index = %d, want 105", last)
	}
}

// TestInstrumentedThetaThroughHybrid locks capability discovery through
// stage nesting: an Instrumented around a Hybrid around a detector still
// stamps the detector's θ_error onto trace entries.
func TestInstrumentedThetaThroughHybrid(t *testing.T) {
	hybrid := NewHybrid(&driftStage{every: 1}, &echoStage{}, HybridConfig{})
	in := NewInstrumented(hybrid, InstrumentConfig{})
	in.Process([]float64{1})
	tr := in.Trace()
	if len(tr) != 1 || tr[0].ThetaError != 0.75 {
		t.Fatalf("trace through hybrid = %+v, want ThetaError 0.75", tr)
	}
	if in.ThetaError() != 0.75 {
		t.Fatal("ThetaError capability must stay visible through nesting")
	}
}

func TestInstrumentedCountsRejections(t *testing.T) {
	d, r := newCalibrated(t, 1, DefaultConfig(50))
	in := NewInstrumented(d, InstrumentConfig{StreamID: "s"})
	in.Process(sample(r, 0, 0))
	in.Process([]float64{math.NaN(), 0, 0, 0})
	m := in.Metrics()
	if m.Samples != 2 || m.Rejected != 1 {
		t.Fatalf("metrics = %+v, want 2 samples, 1 rejected", m)
	}
	if th := in.ThetaError(); th != d.ThetaError() || th <= 0 {
		t.Fatalf("instrumented θ_error = %v, detector's = %v", th, d.ThetaError())
	}
}

// TestInstrumentedZeroAllocs locks the observability overhead contract:
// the instrumented hot path allocates nothing, with and without sampled
// timing, including on drift-recording samples (the ring is
// preallocated).
func TestInstrumentedZeroAllocs(t *testing.T) {
	in := NewInstrumented(&driftStage{every: 3}, InstrumentConfig{StreamID: "s", SampleEvery: 4})
	x := []float64{1}
	feed(in, 10) // warm the ring
	if n := testing.AllocsPerRun(200, func() { in.Process(x) }); n != 0 {
		t.Fatalf("instrumented Process allocates %v objects per call, want 0", n)
	}
}

// TestInstrumentedDetectorZeroAllocs repeats the allocation lock on the
// real detector underneath, mirroring the detector's own alloc tests.
func TestInstrumentedDetectorZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(50)
	cfg.ErrorThreshold = 1e18 // never open a check window
	d, r := newCalibrated(t, 1, cfg)
	in := NewInstrumented(d, InstrumentConfig{StreamID: "s", SampleEvery: 8})
	x := sample(r, 0, 0)
	in.Process(x)
	if n := testing.AllocsPerRun(200, func() { in.Process(x) }); n != 0 {
		t.Fatalf("instrumented detector Process allocates %v objects per call, want 0", n)
	}
}

// TestInstrumentedMetricsExact locks the snapshot's exactness under the
// single-writer read contract: counters never lag processing. The
// concurrent-scrape path is exercised at the fleet level, where the
// member lock serialises readers against the hot path.
func TestInstrumentedMetricsExact(t *testing.T) {
	in := NewInstrumented(&driftStage{every: 7}, InstrumentConfig{SampleEvery: 2})
	for i := 1; i <= 5000; i++ {
		in.Process([]float64{0.5})
		if i%997 == 0 {
			if m := in.Metrics(); m.Samples != uint64(i) || m.Drifts != uint64(i/7) {
				t.Fatalf("after %d samples: %+v", i, m)
			}
		}
	}
	m := in.Metrics()
	if m.Samples != 5000 || m.Drifts != 5000/7 {
		t.Fatalf("final metrics = %+v", m)
	}
}

func TestInstrumentedTraceOldestFirstExactRing(t *testing.T) {
	in := NewInstrumented(&driftStage{every: 1}, InstrumentConfig{TraceDepth: 3})
	feed(in, 3)
	got := make([]uint64, 0, 3)
	for _, ev := range in.Trace() {
		got = append(got, ev.Index)
	}
	if !reflect.DeepEqual(got, []uint64{0, 1, 2}) {
		t.Fatalf("exactly-full ring order = %v", got)
	}
}

// The A/B pair behind the <2% overhead acceptance check: run with
//
//	go test -bench 'BenchmarkDetectorProcess' -benchtime 2s ./internal/core/
//
// and compare raw against instrumented-sampled. Call shapes mirror the
// fleet's batch loop exactly: a raw member is one interface dispatch to
// the stage; an instrumented member is one direct call to the concrete
// wrapper, which makes the same single interface dispatch inside — so
// the diff isolates the instrumentation, not a second virtual call the
// fleet never pays.
func benchDetector(b *testing.B) (*Detector, []float64) {
	cfg := DefaultConfig(50)
	cfg.ErrorThreshold = 1e18
	m, r := benchCalibrated(b, cfg)
	return m, sample(r, 0, 0)
}

func BenchmarkDetectorProcessRaw(b *testing.B) {
	m, x := benchDetector(b)
	var s Streaming = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(x)
	}
}

func benchmarkInstrumented(b *testing.B, cfg InstrumentConfig) {
	m, x := benchDetector(b)
	in := NewInstrumented(m, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Process(x)
	}
}

func BenchmarkDetectorProcessInstrumented(b *testing.B) {
	benchmarkInstrumented(b, InstrumentConfig{StreamID: "bench", SampleEvery: 64})
}

func BenchmarkDetectorProcessInstrumentedUntimed(b *testing.B) {
	benchmarkInstrumented(b, InstrumentConfig{StreamID: "bench"})
}

// paperShapeDetector builds a calibrated detector at the paper's
// NSL-KDD reference shape (41 features, 22 hidden units) — the workload
// the hot-path overhead budget is defined against. The tiny test shape
// (4 features, 8 hidden) stays available as a worst-case micro variant.
func paperShapeDetector(b *testing.B, seed uint64) (*Detector, []float64) {
	b.Helper()
	const dims, hidden = 41, 22
	m, err := model.New(model.Config{Classes: 2, Inputs: dims, Hidden: hidden, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2001)
	xs := make([][]float64, 400)
	labels := make([]int, len(xs))
	for i := range xs {
		labels[i] = i % 2
		x := make([]float64, dims)
		for j := range x {
			x[j] = r.Normal(float64(labels[i])*5, 0.3)
		}
		xs[i] = x
	}
	if err := m.InitSequential(xs, labels); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(100)
	cfg.ErrorThreshold = 1e18 // never open a check window: pure hot path
	d, err := New(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		b.Fatal(err)
	}
	probe := make([]float64, dims)
	for j := range probe {
		probe[j] = r.Normal(0, 0.3)
	}
	return d, probe
}

// benchmarkOverheadPaired measures the wrapper's cost differentially:
// raw and instrumented detectors (identically seeded) are driven in
// interleaved 1024-call chunks, so slow-machine frequency drift — which
// dwarfs a few-ns delta when A and B run a minute apart — cancels. The
// acceptance numbers are the custom metrics: overhead-ns/op and
// overhead-pct (budget: <2% with sampled timing on, at the paper
// shape).
func benchmarkOverheadPaired(b *testing.B, build func(*testing.B, uint64) (*Detector, []float64)) {
	raw, x := build(b, 1)
	inner, _ := build(b, 1)
	in := NewInstrumented(inner, InstrumentConfig{StreamID: "bench", SampleEvery: 64})
	var sRaw Streaming = raw
	const chunk = 1024
	var rawNs, instNs int64
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		n := min(chunk, b.N-done)
		t0 := time.Now()
		for j := 0; j < n; j++ {
			sRaw.Process(x)
		}
		t1 := time.Now()
		for j := 0; j < n; j++ {
			in.Process(x)
		}
		rawNs += t1.Sub(t0).Nanoseconds()
		instNs += time.Since(t1).Nanoseconds()
	}
	b.ReportMetric(float64(instNs-rawNs)/float64(b.N), "overhead-ns/op")
	b.ReportMetric(100*float64(instNs-rawNs)/float64(rawNs), "overhead-pct")
}

func BenchmarkInstrumentationOverheadPaired(b *testing.B) {
	benchmarkOverheadPaired(b, paperShapeDetector)
}

// BenchmarkInstrumentationOverheadPairedMicro is the worst case: the
// tiny 4-feature/8-hidden test shape, where the wrapped stage itself is
// only a few hundred ns, so the wrapper's fixed ~tens-of-ns cost is a
// larger fraction.
func BenchmarkInstrumentationOverheadPairedMicro(b *testing.B) {
	benchmarkOverheadPaired(b, func(b *testing.B, seed uint64) (*Detector, []float64) {
		cfg := DefaultConfig(50)
		cfg.ErrorThreshold = 1e18
		d, r := benchCalibrated(b, cfg)
		_ = seed
		return d, sample(r, 0, 0)
	})
}
