package core

import (
	"math"

	"edgedrift/internal/health"
	"edgedrift/internal/mat"
)

// Streaming is the composable per-sample stage contract every drift
// detector in this repository satisfies: the proposed detector, the
// multi-window ensemble, the batch baselines (QuantTree, SPLL) and the
// error-rate baselines (DDM, ADWIN). A stage consumes one sample,
// returns one Result, and can always report its retained memory and a
// structured health snapshot. Stages compose by wrapping: the ingestion
// Guard below is a stage around a stage, and the fleet layer schedules
// any Streaming without knowing which detector is inside.
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

// phaser is the optional capability a stage can expose so a wrapping
// Guard can stamp the current phase onto replayed rejection Results.
type phaser interface {
	PhaseNow() Phase
}

// innerer lets capability discovery see through wrapping stages (Guard,
// Instrumented, Hybrid, pool.Stage) to the detector underneath.
type innerer interface {
	Inner() Streaming
}

// Find discovers the capability T anywhere in a wrapped stage chain:
// it returns the first of s, s.Inner(), s.Inner().Inner(), ... that
// implements T, so a Monitor inside a Guard inside an Instrumented
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

// Guard is the ingestion-guard stage: it applies a GuardPolicy to every
// sample before the wrapped stage can see it, so a non-finite feature —
// a flaky sensor over a months-long deployment — never reaches model or
// centroid state. It used to be inline code in Detector.Process; as a
// wrapping stage the same policy protects any Streaming implementation.
//
// Under GuardReject the wrapped stage's accepted-sample stream behaves
// exactly as if the bad samples had never existed — same drift events,
// same state, bit for bit; the rejected sample returns the last
// accepted Result with Rejected set. GuardClamp repairs the sample into
// a scratch buffer (NaN → 0, ±Inf → ±limit) and processes the repaired
// copy; the caller's slice is never written. GuardPanic panics, for
// pipelines where a bad sample indicates an upstream bug.
type Guard struct {
	policy GuardPolicy
	limit  float64
	inner  Streaming
	phase  func() Phase // optional, from the inner stage's PhaseNow

	rejected uint64
	clamped  uint64
	lastGood Result
	clampBuf []float64
}

// NewGuard wraps inner with the given policy. A zero limit defaults to
// 1e12, matching Config.ClampLimit's default. NewGuard panics on an
// unknown policy — a programmer error, caught at construction rather
// than on the first bad sample.
func NewGuard(inner Streaming, policy GuardPolicy, limit float64) *Guard {
	if policy < GuardReject || policy > GuardPanic {
		panic("core: unknown guard policy")
	}
	if limit == 0 {
		limit = 1e12
	}
	g := &Guard{policy: policy, limit: limit, inner: inner}
	if p, ok := inner.(phaser); ok {
		g.phase = p.PhaseNow
	}
	return g
}

// Policy returns the guard's policy.
func (g *Guard) Policy() GuardPolicy { return g.policy }

// Inner returns the wrapped stage.
func (g *Guard) Inner() Streaming { return g.inner }

// Rejected returns how many samples the guard refused (GuardReject).
func (g *Guard) Rejected() uint64 { return g.rejected }

// Clamped returns how many samples the guard repaired (GuardClamp).
func (g *Guard) Clamped() uint64 { return g.clamped }

// Process applies the guard policy, then forwards to the wrapped stage.
// The finiteness scan is integer-pipeline work (one subtract and
// compare per feature) and is deliberately not op-counted: the paper's
// Table 5/6 cost model tracks floating-point arithmetic on the data
// path.
func (g *Guard) Process(x []float64) Result {
	if !mat.AllFinite(x) {
		switch g.policy {
		case GuardPanic:
			panic("core: non-finite feature in sample (GuardPanic policy)")
		case GuardClamp:
			g.clamped++
			x = g.clampInto(x)
		default: // GuardReject
			g.rejected++
			res := g.lastGood
			res.Rejected = true
			res.DriftDetected = false
			if g.phase != nil {
				res.Phase = g.phase()
			}
			return res
		}
	}
	res := g.inner.Process(x)
	g.lastGood = res
	return res
}

// ProcessBatch forwards runs of finite samples to the wrapped stage's
// batch path and handles non-finite samples one at a time through the
// normal policy machinery. Equivalent to calling Process per sample:
// the guard's only per-sample state is lastGood, which only the last
// result of a forwarded run can be observed as.
func (g *Guard) ProcessBatch(dst []Result, xs [][]float64) []Result {
	bs, ok := g.inner.(BatchStreaming)
	if !ok {
		for _, x := range xs {
			dst = append(dst, g.Process(x))
		}
		return dst
	}
	i := 0
	for i < len(xs) {
		run := 0
		for i+run < len(xs) && mat.AllFinite(xs[i+run]) {
			run++
		}
		if run == 0 {
			dst = append(dst, g.Process(xs[i]))
			i++
			continue
		}
		base := len(dst)
		dst = bs.ProcessBatch(dst, xs[i:i+run])
		if len(dst) > base {
			g.lastGood = dst[len(dst)-1]
		}
		i += run
	}
	return dst
}

// clampInto copies x into the guard's scratch buffer with non-finite
// features repaired: NaN → 0, ±Inf → ±limit. Finite features pass
// through untouched, however large — the guard repairs corruption, it
// does not editorialise about outliers.
func (g *Guard) clampInto(x []float64) []float64 {
	if len(g.clampBuf) < len(x) {
		g.clampBuf = make([]float64, len(x))
	}
	buf := g.clampBuf[:len(x)]
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = g.limit
		case math.IsInf(v, -1):
			v = -g.limit
		}
		buf[i] = v
	}
	return buf
}

// MemoryBytes audits the wrapped stage plus the guard's own scratch.
func (g *Guard) MemoryBytes() int {
	return g.inner.MemoryBytes() + 8*len(g.clampBuf) + 4*8
}

// Health returns the wrapped stage's snapshot with the guard's own
// ingestion counters added in. Added, not assigned: stages compose by
// wrapping, and a guard around a guard must accumulate both layers'
// counts instead of clobbering whatever the inner stage reported.
func (g *Guard) Health() health.Snapshot {
	s := g.inner.Health()
	s.Rejected += g.rejected
	s.Clamped += g.clamped
	return s
}

// PhaseNow forwards the wrapped stage's phase, keeping the capability
// visible through arbitrarily deep stage nesting.
func (g *Guard) PhaseNow() Phase {
	if g.phase != nil {
		return g.phase()
	}
	return g.lastGood.Phase
}

var _ Streaming = (*Guard)(nil)
