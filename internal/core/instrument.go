package core

import (
	"time"

	"edgedrift/internal/health"
	"edgedrift/internal/metrics"
)

// TraceEvent is one entry of the bounded drift trace: a drift detection
// — or a stamped lifecycle marker such as a precision transition — with
// enough context to reconstruct what the detector saw: which stream,
// which sample, the anomaly score and the θ_error in force at detection
// time.
type TraceEvent struct {
	// StreamID names the instrumented stage (empty when unset).
	StreamID string
	// Index is the stage's 0-based sample index of the detection.
	Index uint64
	// Score is the anomaly score on the detecting sample.
	Score float64
	// ThetaError is the error threshold active at detection time (0 when
	// the wrapped stage does not expose one).
	ThetaError float64
	// Phase is the stage phase after the detecting sample.
	Phase Phase
	// Kind distinguishes stamped lifecycle markers ("demote:f32",
	// "promote:f64", …) from ordinary drift detections (empty, the
	// overwhelmingly common case — the field costs a nil string header
	// per ring slot).
	Kind string
}

// InstrumentConfig parameterises an Instrumented stage.
type InstrumentConfig struct {
	// StreamID labels every metric and trace entry this stage records.
	StreamID string
	// SampleEvery enables latency timing on every k-th Process call.
	// 0 (the default) disables timing entirely — no time syscall ever
	// touches the hot path, keeping the paper's per-sample cost model
	// exact; the counters and the drift trace are integer work and stay
	// on regardless.
	SampleEvery int
	// TraceDepth bounds the drift-trace ring buffer; 0 means 64.
	TraceDepth int
}

const defaultTraceDepth = 64

// StageMetrics is a point-in-time copy of an Instrumented stage's
// counters, safe to pass around and render without synchronising with
// the hot path.
type StageMetrics struct {
	// StreamID labels the stage.
	StreamID string
	// Samples counts Process calls.
	Samples uint64
	// Drifts counts results with DriftDetected set.
	Drifts uint64
	// Rejected counts results with Rejected set (ingestion-guard refusals
	// observed through this seam).
	Rejected uint64
	// PhaseTransitions counts result-phase changes (e.g. monitoring →
	// checking → reconstructing → monitoring each count once).
	PhaseTransitions uint64
	// PhaseSamples counts samples per result phase, indexed by Phase.
	PhaseSamples [3]uint64
	// Latency is the sampled Process latency distribution in nanoseconds
	// (zero when SampleEvery is 0).
	Latency metrics.HistogramSnapshot
}

// Instrumented is the observability stage: a wrapper that records
// per-stage process latency (sampled), result phase transitions, and
// drift events into a bounded ring-buffer trace. It changes nothing
// about the wrapped stage's behaviour — every Result passes through
// untouched — and its own cost is a handful of plain integer
// increments per sample, plus one clock read every SampleEvery-th call
// when timing is opted in. The counters are deliberately NOT atomic:
// one uncontended atomic add costs more than the whole per-sample
// budget this wrapper is allowed (<2% of a detector Process call), so
// the stage keeps the plain single-writer discipline of every other
// Streaming stage.
//
// Consequently Metrics() and Trace() share one read contract: call them
// from the processing goroutine, or under whatever lock serialises it —
// in a Fleet, the member lock, which Fleet.Metrics and Fleet.Traces
// take for you. That is also how exposition scrapes stay race-free:
// they go through the fleet, never through a bare Instrumented that
// another goroutine is driving.
type Instrumented struct {
	// Field order is deliberate: inner plus the per-sample fields (n,
	// untilTimed, lastPhase, haveLast) lead the struct so every hot-path
	// access lands on the first cache line, ahead of the cold histogram.
	inner      Streaming
	n          uint64 // Process calls
	untilTimed uint64 // countdown to the next timed call (0 = timing off)
	lastPhase  Phase
	haveLast   bool

	id    string
	every uint64
	theta func() float64 // θ_error capability of the wrapped chain, if any
	phase func() Phase   // PhaseNow capability, if any

	// Cold counters: plain fields, single writer (see type comment).
	// Per-phase sample counts are span-based: phaseCount only accumulates
	// closed phase spans (on transition), and Metrics adds the open span
	// [phaseStart, n) to lastPhase — so the steady-state hot path touches
	// nothing but n and one compound branch.
	drifts      uint64
	rejected    uint64
	transitions uint64
	phaseCount  [3]uint64
	phaseStart  uint64 // sample index the current phase span began at
	latency     metrics.Histogram

	trace    []TraceEvent // ring buffer, fixed capacity
	traceLen int          // entries filled while the ring was still growing
	tracePos int          // next write position
}

// errorThresholder is the optional capability a stage can expose so an
// instrumenting wrapper can stamp θ_error onto drift-trace entries.
type errorThresholder interface {
	ThetaError() float64
}

// thresholder is the Monitor-shaped variant of the same capability.
type thresholder interface {
	Thresholds() (errorThreshold, driftThreshold float64)
}

// NewInstrumented wraps inner with the given instrumentation options.
func NewInstrumented(inner Streaming, cfg InstrumentConfig) *Instrumented {
	depth := cfg.TraceDepth
	if depth <= 0 {
		depth = defaultTraceDepth
	}
	in := &Instrumented{
		inner: inner,
		id:    cfg.StreamID,
		every: uint64(max(cfg.SampleEvery, 0)),
		trace: make([]TraceEvent, depth),
		// Sentinel: no real phase matches, so the first sample always
		// takes the record path and opens the first phase span.
		lastPhase: Phase(-1),
	}
	if in.every > 0 {
		in.untilTimed = 1 // time the first call, then every `every`-th
	}
	// A Monitor inside a Hybrid still exposes its thresholds through the
	// seam. θ_error proper wins over the Monitor-shaped pair.
	if t, ok := Find[errorThresholder](inner); ok {
		in.theta = t.ThetaError
	} else if t, ok := Find[thresholder](inner); ok {
		in.theta = func() float64 { e, _ := t.Thresholds(); return e }
	}
	if p, ok := Find[phaser](inner); ok {
		in.phase = p.PhaseNow
	}
	return in
}

// Inner returns the wrapped stage.
func (in *Instrumented) Inner() Streaming { return in.inner }

// Process forwards to the wrapped stage, recording counters, sampled
// latency, phase transitions and drift-trace entries on the way out.
// The steady-state cost (no drift, no rejection, phase unchanged,
// timing off) is one increment and a couple of predicted branches in a
// single stack frame; everything rarer funnels into the cold record
// path. untilTimed rests at 0 when timing is off and cycles 1..every
// when on, so the disarmed case is a single false branch.
func (in *Instrumented) Process(x []float64) Result {
	var start time.Time
	timed := false
	if in.untilTimed != 0 {
		in.untilTimed--
		if in.untilTimed == 0 {
			timed = true
			in.untilTimed = in.every
			start = time.Now()
		}
	}
	res := in.inner.Process(x)
	if timed {
		in.latency.Observe(uint64(time.Since(start)))
	}
	in.n++
	if res.Rejected || res.DriftDetected || res.Phase != in.lastPhase {
		in.record(res)
	}
	return res
}

// record handles the rare per-sample events: guard rejections, phase
// span closes, and drift-trace writes. Cold by construction — the hot
// path only calls it when one of those actually happened (and on the
// very first sample, whose sentinel lastPhase forces a span open).
func (in *Instrumented) record(res Result) {
	idx := in.n - 1
	if res.Rejected {
		in.rejected++
	}
	if res.Phase != in.lastPhase {
		if in.haveLast {
			in.transitions++
			if p := int(in.lastPhase); p >= 0 && p < len(in.phaseCount) {
				in.phaseCount[p] += idx - in.phaseStart
			}
		}
		in.haveLast = true
		in.lastPhase = res.Phase
		in.phaseStart = idx
	}
	if res.DriftDetected {
		in.drifts++
		ev := TraceEvent{StreamID: in.id, Index: idx, Score: res.Score, Phase: res.Phase}
		if in.theta != nil {
			ev.ThetaError = in.theta()
		}
		in.trace[in.tracePos] = ev
		in.tracePos = (in.tracePos + 1) % len(in.trace)
		if in.traceLen < len(in.trace) {
			in.traceLen++
		}
	}
}

// Stamp writes a lifecycle marker into the trace ring at the current
// sample index — the fleet uses it to make precision transitions
// auditable next to the drift detections they respond to. Like every
// trace write it is single-writer: call it from the processing
// goroutine or under the lock that serialises it (the fleet's member
// lock).
func (in *Instrumented) Stamp(kind string) {
	ev := TraceEvent{StreamID: in.id, Index: in.n, Kind: kind}
	if in.theta != nil {
		ev.ThetaError = in.theta()
	}
	if in.phase != nil {
		ev.Phase = in.phase()
	}
	in.trace[in.tracePos] = ev
	in.tracePos = (in.tracePos + 1) % len(in.trace)
	if in.traceLen < len(in.trace) {
		in.traceLen++
	}
}

// Metrics returns a snapshot of the stage's counters. Like Trace, call
// it from the processing goroutine or under the lock that serialises it
// (the fleet's member lock — Fleet.Metrics does this for you).
func (in *Instrumented) Metrics() StageMetrics {
	m := StageMetrics{
		StreamID:         in.id,
		Samples:          in.n,
		Drifts:           in.drifts,
		Rejected:         in.rejected,
		PhaseTransitions: in.transitions,
		Latency:          in.latency.Snapshot(),
	}
	copy(m.PhaseSamples[:], in.phaseCount[:])
	// Close the open phase span: samples since the last transition are
	// all in lastPhase but not yet folded into phaseCount.
	if in.haveLast {
		if p := int(in.lastPhase); p >= 0 && p < len(m.PhaseSamples) {
			m.PhaseSamples[p] += in.n - in.phaseStart
		}
	}
	return m
}

// Trace returns the retained drift events, oldest first — the last
// TraceDepth detections. Call from the processing goroutine or under
// the fleet's member lock.
func (in *Instrumented) Trace() []TraceEvent {
	out := make([]TraceEvent, 0, in.traceLen)
	if in.traceLen < len(in.trace) {
		return append(out, in.trace[:in.traceLen]...)
	}
	out = append(out, in.trace[in.tracePos:]...)
	return append(out, in.trace[:in.tracePos]...)
}

// MemoryBytes audits the wrapped stage plus the instrumentation's own
// retained state: the trace ring and the counter block.
func (in *Instrumented) MemoryBytes() int {
	const traceEventBytes = 16 + 8 + 8 + 8 + 8 + 16 // string header + index + score + theta + phase + kind header
	counters := (5 + 3) * 8                         // counters + phase counters
	histogram := (metrics.HistogramBuckets + 2) * 8
	return in.inner.MemoryBytes() + len(in.trace)*traceEventBytes + counters + histogram
}

// Health forwards the wrapped stage's snapshot unchanged: the
// instrumentation observes, it does not contribute health state.
func (in *Instrumented) Health() health.Snapshot { return in.inner.Health() }

// PhaseNow forwards the wrapped stage's phase, keeping the capability
// visible through arbitrarily deep stage nesting.
func (in *Instrumented) PhaseNow() Phase {
	if in.phase != nil {
		return in.phase()
	}
	if in.haveLast {
		return in.lastPhase
	}
	return Monitoring
}

// ThetaError forwards the wrapped chain's error threshold (0 when none
// is exposed), keeping the capability visible through nesting.
func (in *Instrumented) ThetaError() float64 {
	if in.theta != nil {
		return in.theta()
	}
	return 0
}

var _ Streaming = (*Instrumented)(nil)
