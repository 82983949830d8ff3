package core

import (
	"edgedrift/internal/health"
	"edgedrift/internal/model"
)

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

// BatchStreaming is the optional capability a stage can expose when it
// can consume several samples per call: ProcessBatch appends one Result
// per sample of xs to dst, in order, and returns the extended slice.
//
// The contract is strict equivalence: the results — and every piece of
// observable stage state after the call — must be identical to calling
// Process once per sample. Batching is a memory-access-pattern
// optimisation (scoring N samples through shared weight matrices as
// GEMMs instead of N matvec pairs), never a semantic change; a stage
// that cannot currently guarantee equivalence (mid-reconstruction,
// op-counting armed, timing armed) must fall back to its per-sample
// path internally. Callers therefore never need to check state before
// batching — only whether the capability exists at all.
type BatchStreaming interface {
	Streaming
	ProcessBatch(dst []Result, xs [][]float64) []Result
}

// ScratchBorrower is the optional capability of a stage whose batched
// scoring can run on borrowed working memory. A host that schedules
// many stages of one shape — the fleet — keeps one model.Scratch per
// concurrent caller instead of one per stage: under the stage's lock it
// asks ScratchShape, lends a scratch of that shape with BorrowScratch,
// runs ProcessBatch, and takes the scratch back with BorrowScratch(nil)
// before unlocking. The scratch holds nothing from one call to the
// next, so results are bit-identical to the stage's own lazy scratch,
// which a stage that is never lent one keeps allocating. Callers
// discover the capability with Find[ScratchBorrower].
type ScratchBorrower interface {
	// ScratchShape reports the shape of scratch the next ProcessBatch
	// would use, and false when the active path scores no model batch.
	ScratchShape() (model.Shape, bool)
	// BorrowScratch lends s for the ProcessBatch calls that follow; nil
	// takes it back.
	BorrowScratch(s *model.Scratch)
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
