package edgedrift_test

import (
	"bytes"
	"encoding/json"
	"expvar"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgedrift"
)

// instrumentedFleet builds a two-stream instrumented fleet and pushes a
// slice of the fixture stream through both members.
func instrumentedFleet(t *testing.T, fx *fleetFixture) *edgedrift.Fleet {
	t.Helper()
	f := edgedrift.NewFleet(edgedrift.FleetConfig{
		Instrument: true, SampleEvery: 8, TraceDepth: 16,
	})
	for _, id := range []string{"line-a", "line-b"} {
		if err := f.Add(id, fx.monitor(t, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch(id, fx.stream[:200]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestSharedStreamsGauge: edgedrift_shared_streams counts the members
// still sharing their template's learned state, and memory rises by a
// private copy as a clone drifts.
func TestSharedStreamsGauge(t *testing.T) {
	fx := newFleetFixture(t)
	tmpl := fx.monitor(t, 1)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, id := range []string{"a", "b", "c"} {
		if err := f.Add(id, mustClone(t, tmpl)); err != nil {
			t.Fatal(err)
		}
	}
	gauge := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := f.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "edgedrift_shared_streams ") {
				return line
			}
		}
		t.Fatal("exposition has no edgedrift_shared_streams sample")
		return ""
	}
	if got := gauge(); got != "edgedrift_shared_streams 3" {
		t.Fatalf("before any drift: %q", got)
	}
	before := f.MemoryBytes()
	if _, err := f.ProcessBatch("a", fx.stream[:1200]); err != nil {
		t.Fatal(err)
	}
	if _, drifts, _ := f.MemberStats("a"); drifts == 0 {
		t.Fatal("the stream never drifted")
	}
	if got := gauge(); got != "edgedrift_shared_streams 2" {
		t.Fatalf("after one drift: %q", got)
	}
	// The fixture's monitors are C=2, D=3, H=8: β is H×D, P is H×H,
	// and the private copy brings the RLS scratch P·h (H). The
	// reconstruction is still running, so the trained centroids are
	// still shared.
	if got, want := f.MemoryBytes()-before, 8*(8*3+8*8+8)*2; got != want {
		t.Fatalf("memory rose %d B when a clone took its private copy, want %d B", got, want)
	}
}

// TestWriteMetricsExposition renders an instrumented fleet in the
// Prometheus text format and checks the families a scraper relies on
// are present, typed, and carry the expected values.
func TestWriteMetricsExposition(t *testing.T) {
	fx := newFleetFixture(t)
	f := instrumentedFleet(t, fx)

	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE edgedrift_streams gauge",
		"edgedrift_streams 2",
		"# TYPE edgedrift_samples_total counter",
		"edgedrift_samples_total 400",
		"edgedrift_healthy 1",
		`edgedrift_stream_samples_total{stream="line-a"} 200`,
		`edgedrift_stream_samples_total{stream="line-b"} 200`,
		`edgedrift_stream_phase_samples_total{stream="line-a",phase="monitoring"}`,
		"# TYPE edgedrift_process_latency_seconds histogram",
		`edgedrift_process_latency_seconds_bucket{stream="line-a",le="+Inf"} 25`,
		`edgedrift_process_latency_seconds_count{stream="line-a"} 25`,
		"# TYPE edgedrift_labels_observed_total counter",
		"# TYPE edgedrift_supervised_fires_total counter",
		"# TYPE edgedrift_supervised_triggers_total counter",
		"# TYPE edgedrift_hybrid_confirms_total counter",
		"# TYPE edgedrift_pool_hits_total counter",
		"# TYPE edgedrift_pool_misses_total counter",
		"# TYPE edgedrift_pool_restores_total counter",
		"# TYPE edgedrift_pool_evictions_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// HELP/TYPE headers must appear exactly once per family even though
	// two streams emit the same families.
	if n := strings.Count(out, "# TYPE edgedrift_stream_samples_total counter"); n != 1 {
		t.Fatalf("per-stream family TYPE header emitted %d times, want 1", n)
	}
	// Deterministic ordering: line-a's series before line-b's.
	if strings.Index(out, `{stream="line-a"}`) > strings.Index(out, `{stream="line-b"}`) {
		t.Fatal("streams not sorted by ID in exposition")
	}
}

// TestWriteMetricsUninstrumented checks the exposition degrades
// gracefully on a plain fleet: totals and health, no per-stream stage
// families, no latency histogram.
func TestWriteMetricsUninstrumented(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", fx.stream[:50]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `edgedrift_stream_samples_total{stream="s"} 50`) {
		t.Fatal("per-stream sample counter missing")
	}
	if strings.Contains(out, "edgedrift_process_latency_seconds") {
		t.Fatal("latency histogram exposed without instrumentation")
	}
}

// TestFleetRemoveReportsFinalCounts locks the public Remove contract:
// the final lifetime counters come back with the membership bit.
func TestFleetRemoveReportsFinalCounts(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", fx.stream[:120]); err != nil {
		t.Fatal(err)
	}
	samples, drifts, ok := f.Remove("s")
	if !ok || samples != 120 {
		t.Fatalf("Remove = (%d, %d, %v), want 120 samples, ok", samples, drifts, ok)
	}
	if _, _, ok := f.Remove("s"); ok {
		t.Fatal("second Remove of the same stream reported ok")
	}
	if f.Len() != 0 {
		t.Fatalf("Len after remove = %d", f.Len())
	}
}

// TestPublishExpvar registers the fleet roll-up in the expvar registry
// and reads it back through the standard interface; a duplicate name
// must error instead of panicking.
func TestPublishExpvar(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", fx.stream[:80]); err != nil {
		t.Fatal(err)
	}
	const name = "edgedrift_test_fleet"
	if err := f.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	if err := f.PublishExpvar(name); err == nil {
		t.Fatal("duplicate PublishExpvar did not error")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar.Get returned nil after publish")
	}
	var m struct{ Samples uint64 }
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar rendering is not JSON: %v", err)
	}
	if m.Samples != 80 {
		t.Fatalf("expvar Samples = %d, want 80", m.Samples)
	}
}

// TestStartHealthLogger runs the periodic logger on a tight cadence and
// checks it emits Snapshot.String() lines until stopped; stop must be
// idempotent.
func TestStartHealthLogger(t *testing.T) {
	var lines atomic.Int64
	var lastLine atomic.Value
	snap := func() edgedrift.HealthSnapshot {
		return edgedrift.HealthSnapshot{SamplesSeen: 7, PFinite: true, Phase: "monitoring"}
	}
	stop := edgedrift.StartHealthLogger(time.Millisecond, snap, func(line string) {
		lastLine.Store(line)
		lines.Add(1)
	})
	deadline := time.Now().Add(2 * time.Second)
	for lines.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if lines.Load() < 3 {
		t.Fatalf("health logger emitted %d lines in 2s at 1ms cadence", lines.Load())
	}
	line, _ := lastLine.Load().(string)
	if !strings.Contains(line, "phase=monitoring") || !strings.Contains(line, "samples=7") {
		t.Fatalf("logged line %q is not the snapshot rendering", line)
	}
	// One tick may already be in flight when stop returns; let it land,
	// then the count must freeze.
	time.Sleep(20 * time.Millisecond)
	n := lines.Load()
	time.Sleep(20 * time.Millisecond)
	if lines.Load() != n {
		t.Fatal("logger kept ticking after stop")
	}
}

func TestStartHealthLoggerRejectsZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StartHealthLogger(0, ...) did not panic")
		}
	}()
	edgedrift.StartHealthLogger(0, func() edgedrift.HealthSnapshot { return edgedrift.HealthSnapshot{} }, func(string) {})
}

// TestInstrumentedFleetSteadyStateAllocs repeats the fleet's zero-alloc
// lock with instrumentation on: sampled timing and the trace ring must
// not put allocations back on the hot path.
func TestInstrumentedFleetSteadyStateAllocs(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{Instrument: true, SampleEvery: 4})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	batch := fx.stream[:100] // pre-drift, in-distribution
	dst := make([]edgedrift.Result, 0, len(batch))
	warm := func() {
		var err error
		dst, err = f.ProcessBatchInto(dst[:0], "s", batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("instrumented fleet steady-state allocates %.1f times per batch, want 0", n)
	}
}

// TestInstrumentedFleetSaveLoad checks serialization sees through the
// instrumentation wrapper: an instrumented fleet saves, loads into an
// instrumented config, and continues identically to an uninstrumented
// reference.
func TestInstrumentedFleetSaveLoad(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{Instrument: true})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	head, tail := fx.stream[:300], fx.stream[300:600]
	if _, err := f.ProcessBatch("s", head); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	g, err := edgedrift.LoadFleet(bytes.NewReader(buf.Bytes()), edgedrift.FleetConfig{Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.ProcessBatch("s", tail)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ProcessBatch("s", tail)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: loaded instrumented fleet diverges", i)
		}
	}
	if m := g.Metrics(); m.PerStream["s"].Stage == nil {
		t.Fatal("loaded fleet lost its instrumentation")
	}
}
