package core

import "edgedrift/internal/health"

// Streaming is the composable per-sample stage contract every drift
// detector in this repository satisfies: the proposed detector, the
// multi-window ensemble, the batch baselines (QuantTree, SPLL) and the
// error-rate baselines (DDM, ADWIN). A stage consumes one sample,
// returns one Result, and can always report its retained memory and a
// structured health snapshot. Stages compose by wrapping (Instrumented,
// Hybrid and pool.Stage are stages around a stage), and the fleet layer
// schedules any Streaming without knowing which detector is inside.
//
// Implementations are single-threaded by contract — one goroutine per
// stage instance. Concurrency is provided above this interface (the
// fleet's sharded registry), never inside it.
type Streaming interface {
	// Process consumes one sample and returns the per-sample outcome.
	Process(x []float64) Result
	// MemoryBytes audits the stage's retained state.
	MemoryBytes() int
	// Health returns the stage's structured health snapshot.
	Health() health.Snapshot
}

// phaser is the optional capability a stage exposes to report its
// current phase without processing a sample.
type phaser interface {
	PhaseNow() Phase
}

// innerer lets capability discovery see through wrapping stages
// (Instrumented, Hybrid, pool.Stage) to the detector underneath.
type innerer interface {
	Inner() Streaming
}

// Find discovers the capability T anywhere in a wrapped stage chain:
// it returns the first of s, s.Inner(), s.Inner().Inner(), ... that
// implements T, so a Monitor inside a Hybrid inside an Instrumented
// wrapper still exposes its merge state, precision lifecycle or
// thresholds. It returns false when no stage in the chain has T (the
// Q16.16 detect-only port cannot merge; baseline detectors cannot
// transition) and for a nil s.
func Find[T any](s Streaming) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		w, ok := s.(innerer)
		if !ok {
			break
		}
		s = w.Inner()
	}
	var zero T
	return zero, false
}
