package core

import (
	"math"

	"edgedrift/internal/health"
)

// FusionPolicy selects how a Hybrid stage combines its unsupervised
// centroid detector with the supervised error-rate arm.
type FusionPolicy int

const (
	// FuseEither responds to whichever arm fires first: a supervised
	// alarm triggers the inner detector's reconstruction directly, so
	// late labels can catch drifts the centroid distance misses (class
	// swaps that leave the input distribution alone).
	FuseEither FusionPolicy = iota
	// FuseConfirm treats the arms as cross-checks: neither arm changes
	// the other's behaviour, but an alarm from both within the
	// confirmation window is counted as a confirmed drift — the
	// high-confidence signal a deployment might page on.
	FuseConfirm
)

// String implements fmt.Stringer.
func (p FusionPolicy) String() string {
	switch p {
	case FuseEither:
		return "either"
	case FuseConfirm:
		return "confirm"
	default:
		return "unknown"
	}
}

// HybridConfig configures a Hybrid stage.
type HybridConfig struct {
	// Policy is the fusion policy; the zero value is FuseEither.
	Policy FusionPolicy
	// ConfirmWindow is how many samples apart the two arms' alarms may
	// be and still confirm each other (FuseConfirm). Zero defaults to
	// 100 — twice the paper's drift window.
	ConfirmWindow int
}

// hybridFarPast initialises the last-alarm clocks so that "no alarm
// yet" can never sit inside any confirmation window. Quartering MinInt
// keeps step-hybridFarPast arithmetic overflow-free on 32-bit targets.
const hybridFarPast = math.MinInt / 4

// Hybrid composes the unsupervised drift detector with a supervised
// error-rate detector (DDM/ADWIN from internal/detectors, passed as a
// plain Streaming over a one-feature error-bit stream) fed by
// whenever-they-arrive labels. Samples flow through Process exactly as
// without the stage; labels flow through the Observe side channel as
// they arrive. With no Observe calls the stage is a strict bystander:
// the inner detector sees the identical call sequence and every result
// is forwarded untouched, so golden fingerprints are unchanged when
// labels never come.
//
// The supervised arm is deliberately typed as Streaming rather than a
// concrete detector: internal/detectors imports this package, so the
// dependency can only point this way.
type Hybrid struct {
	inner Streaming
	sup   Streaming
	cfg   HybridConfig

	trigger  func()       // inner's TriggerReconstruction capability
	phase    func() Phase // inner's PhaseNow capability
	supReset func()       // supervised arm's Reset capability

	step      int // accepted-sample clock for alarm pairing
	lastSup   int
	lastUnsup int
	errBuf    [1]float64

	labelsObserved uint64
	supFires       uint64
	supTriggers    uint64
	unsupFires     uint64
	confirms       uint64
}

// NewHybrid wraps inner with the supervised arm sup. The inner stage's
// TriggerReconstruction and PhaseNow capabilities are discovered
// through any depth of wrapping stages (an Instrumented around a
// Detector still fuses); an inner stage without TriggerReconstruction degrades
// gracefully — supervised fires are counted but trigger nothing.
func NewHybrid(inner, sup Streaming, cfg HybridConfig) *Hybrid {
	if inner == nil || sup == nil {
		panic("core: NewHybrid with nil stage")
	}
	if cfg.ConfirmWindow <= 0 {
		cfg.ConfirmWindow = 100
	}
	h := &Hybrid{
		inner:     inner,
		sup:       sup,
		cfg:       cfg,
		lastSup:   hybridFarPast,
		lastUnsup: hybridFarPast,
	}
	if t, ok := Find[interface{ TriggerReconstruction() }](inner); ok {
		h.trigger = t.TriggerReconstruction
	}
	if p, ok := Find[phaser](inner); ok {
		h.phase = p.PhaseNow
	}
	if r, ok := sup.(interface{ Reset() }); ok {
		h.supReset = r.Reset
	}
	return h
}

// Process forwards the sample to the inner detector and returns its
// result untouched, advancing the pairing clock and booking an
// unsupervised alarm, which under FuseConfirm is confirmed against a
// recent supervised one.
func (h *Hybrid) Process(x []float64) Result {
	res := h.inner.Process(x)
	h.step++
	if !res.DriftDetected {
		return res
	}
	h.unsupFires++
	h.lastUnsup = h.step
	if h.cfg.Policy == FuseConfirm && h.step-h.lastSup <= h.cfg.ConfirmWindow {
		h.confirms++
	}
	return res
}

// Observe feeds one late label to the supervised arm: the ground truth
// for some earlier sample together with the prediction the model made
// for it at the time. It returns true when the supervised arm raised a
// drift alarm on this observation. Under FuseEither a supervised alarm
// triggers the inner detector's reconstruction (unless one is already
// running); under FuseConfirm it is paired against unsupervised alarms
// within the confirmation window.
func (h *Hybrid) Observe(label, predicted int) bool {
	h.labelsObserved++
	h.errBuf[0] = 0
	if label != predicted {
		h.errBuf[0] = 1
	}
	res := h.sup.Process(h.errBuf[:])
	if !res.DriftDetected {
		return false
	}
	h.supFires++
	h.lastSup = h.step
	// Re-arm the supervised arm for the next drift. DDM self-resets on
	// a fire (Reset is then a no-op state-wise); ADWIN needs it.
	if h.supReset != nil {
		h.supReset()
	}
	switch h.cfg.Policy {
	case FuseConfirm:
		if h.step-h.lastUnsup <= h.cfg.ConfirmWindow {
			h.confirms++
		}
	default: // FuseEither
		if h.trigger != nil && (h.phase == nil || h.phase() != Reconstructing) {
			h.trigger()
			h.supTriggers++
		}
	}
	return true
}

// Inner returns the wrapped unsupervised stage.
func (h *Hybrid) Inner() Streaming { return h.inner }

// LabelsObserved returns how many labels reached the side channel.
func (h *Hybrid) LabelsObserved() uint64 { return h.labelsObserved }

// SupervisedFires returns how many alarms the supervised arm raised.
func (h *Hybrid) SupervisedFires() uint64 { return h.supFires }

// SupervisedTriggers returns how many reconstructions the supervised
// arm started.
func (h *Hybrid) SupervisedTriggers() uint64 { return h.supTriggers }

// Confirms returns how many alarms the two arms confirmed jointly.
func (h *Hybrid) Confirms() uint64 { return h.confirms }

// PhaseNow forwards the inner stage's phase capability.
func (h *Hybrid) PhaseNow() Phase {
	if h.phase != nil {
		return h.phase()
	}
	return Monitoring
}

// MemoryBytes audits both arms plus the stage's own fixed state.
func (h *Hybrid) MemoryBytes() int {
	return h.inner.MemoryBytes() + h.sup.MemoryBytes() + 8*len(h.errBuf) + 10*8
}

// Health returns the inner stage's snapshot with the fusion counters
// added in — added, not assigned, per the stage-composition rule.
func (h *Hybrid) Health() health.Snapshot {
	s := h.inner.Health()
	s.LabelsObserved += h.labelsObserved
	s.SupervisedFires += h.supFires
	s.SupervisedTriggers += h.supTriggers
	s.HybridConfirms += h.confirms
	return s
}

var _ Streaming = (*Hybrid)(nil)
