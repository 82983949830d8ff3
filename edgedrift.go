// Package edgedrift is a lightweight, fully sequential concept-drift
// detection library for resource-limited edge devices, reproducing
// Yamada & Matsutani, "A Lightweight Concept Drift Detection Method for
// On-Device Learning on Resource-Limited Edge Devices" (IPPS 2023).
//
// The library couples a multi-instance OS-ELM autoencoder model (one
// instance per class, argmin-reconstruction-error prediction) with a
// centroid-tracking drift detector whose every step — prediction,
// centroid update, distance test, and drift-triggered model
// reconstruction — is O(1)-per-sample sequential computation over
// O(C·D + H²) state. Nothing buffers past samples, which is what lets
// the whole system run in the 264 kB of a Raspberry Pi Pico.
//
// Quickstart:
//
//	mon, _ := edgedrift.New(edgedrift.Options{
//		Classes: 2, Inputs: 38, Hidden: 22, Window: 100, Seed: 1,
//	})
//	_ = mon.Fit(trainX, trainY) // or FitUnsupervised(trainX)
//	for _, x := range stream {
//		r := mon.Process(x)
//		if r.DriftDetected {
//			log.Println("concept drift — model reconstruction started")
//		}
//	}
//
// The internal packages expose the substrates (OS-ELM, QuantTree, SPLL,
// DDM, ADWIN, k-means, device cost models, dataset surrogates) to the
// example programs and the benchmark harness in this repository; this
// package is the stable user-facing surface.
package edgedrift

import (
	"errors"
	"fmt"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/mat"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
	"edgedrift/internal/stats"
)

// Result is the per-sample outcome of Monitor.Process.
type Result = core.Result

// Phase is the detector state (Monitoring, Checking, Reconstructing).
type Phase = core.Phase

// Detector phases, re-exported for switch statements on Result.Phase.
const (
	Monitoring     = core.Monitoring
	Checking       = core.Checking
	Reconstructing = core.Reconstructing
)

// OpCounter tallies modelled floating-point work; attach one with
// Monitor.SetOps and convert it to device time with the device profiles
// in internal/device (or your own cycle model).
type OpCounter = opcount.Counter

// GuardPolicy selects what Process does with a sample carrying a
// non-finite (NaN/±Inf) feature. The default, GuardReject, refuses the
// sample before it can poison model or centroid state; see the core
// package for the full semantics of each policy.
type GuardPolicy = core.GuardPolicy

// Guard policies, re-exported for Options.Guard.
const (
	GuardReject = core.GuardReject
	GuardClamp  = core.GuardClamp
	GuardPanic  = core.GuardPanic
)

// HealthSnapshot is the monitor's structured health view: ingestion-guard
// counters, RLS watchdog state across all model instances, and the
// monitoring-score distribution summary.
type HealthSnapshot = health.Snapshot

// Options configures a Monitor.
type Options struct {
	// Classes is the number of labels C; one autoencoder instance each.
	Classes int
	// Inputs is the feature dimension D.
	Inputs int
	// Hidden is the autoencoder hidden-layer width (the paper uses 22).
	Hidden int
	// Window is the detector's window size W (paper Table 2/3 values:
	// 10–1000 depending on the expected drift behaviour).
	Window int
	// Seed drives all random state (projections, calibration); same
	// seed, same behaviour.
	Seed uint64

	// Forgetting < 1 enables the ONLAD-style forgetting factor inside
	// each instance. 0 means 1 (plain OS-ELM).
	Forgetting float64
	// Ridge regularises the sequential least squares (0 → 1e-2).
	Ridge float64
	// ZDrift and ZError are the threshold calibration widths (0 → 1 for
	// drift, 2 for error — see Monitor.Fit).
	ZDrift, ZError float64
	// ErrorThreshold and DriftThreshold pin θ_error / θ_drift manually
	// when > 0, bypassing calibration.
	ErrorThreshold, DriftThreshold float64
	// NRecon, NSearch, NUpdate size the reconstruction (0 → detector
	// defaults).
	NRecon, NSearch, NUpdate int
	// TrainDuringMonitor keeps sequentially training the closest
	// instance on every monitored sample (the passive ONLAD behaviour).
	// Samples rejected by the ingestion guard are never trained on.
	TrainDuringMonitor bool

	// Guard is the non-finite-input policy; the zero value is
	// GuardReject, the production default.
	Guard GuardPolicy
	// ClampLimit is the magnitude ±Inf features are clamped to under
	// GuardClamp (0 → 1e12).
	ClampLimit float64

	// Precision selects the numeric backend the model's inference-side
	// state computes at: Float64 (the zero value, bit-identical to the
	// historical behaviour) or Float32 (half the inference footprint; RLS
	// training keeps its conditioning state at float64). Fixed16 is
	// inference-only and rejected here — fit a float monitor and derive
	// the integer port with QuantizeQ16.
	Precision Precision
}

// Monitor is the user-facing bundle of discriminative model + drift
// detector — the single-stream special case of the streaming pipeline.
// It is not safe for concurrent use: a Monitor is one state machine fed
// from one goroutine. To monitor many streams concurrently, register
// one Monitor per stream in a Fleet, which serialises access per member
// and is the concurrent entry point.
type Monitor struct {
	opts  Options
	model *model.Multi
	det   *core.Detector
	rng   *rng.Rand
	fit   bool

	// degraded is the reduced-precision twin installed by Demote and
	// dropped by Promote. While non-nil, model and det above are frozen
	// as the retained full-precision origin and every sample flows
	// through the twin; see transition.go for the lifecycle.
	degraded core.Streaming
}

// A fitted Monitor is itself a pipeline stage: the Fleet schedules it
// through the same contract every detector in this repository satisfies.
var _ core.Streaming = (*Monitor)(nil)

// New builds an untrained Monitor. Call Fit or FitUnsupervised before
// Process.
func New(opts Options) (*Monitor, error) {
	if opts.Ridge == 0 {
		opts.Ridge = 1e-2
	}
	r := rng.New(opts.Seed)
	m, err := model.New(model.Config{
		Classes:    opts.Classes,
		Inputs:     opts.Inputs,
		Hidden:     opts.Hidden,
		Forgetting: opts.Forgetting,
		Ridge:      opts.Ridge,
		Precision:  opts.Precision,
	}, r.Split())
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Window:            opts.Window,
		ZDrift:            opts.ZDrift,
		ZError:            opts.ZError,
		ErrorThreshold:    opts.ErrorThreshold,
		DriftThreshold:    opts.DriftThreshold,
		NRecon:            opts.NRecon,
		NSearch:           opts.NSearch,
		NUpdate:           opts.NUpdate,
		ResetModelOnDrift: true,
		Guard:             opts.Guard,
		ClampLimit:        opts.ClampLimit,
		Precision:         opts.Precision,
	}
	det, err := core.New(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Monitor{opts: opts, model: m, det: det, rng: r}, nil
}

// Fit trains the discriminative model sequentially on the labelled
// initial data and calibrates both detector thresholds.
//
// θ_error is calibrated prequentially: each sample is scored before it is
// trained on, and the threshold is μ + ZError·σ of the second-half
// scores (ZError defaults to 2). Scoring after training would measure
// overfit reconstruction errors and open a check window on every
// deployment sample.
func (m *Monitor) Fit(xs [][]float64, labels []int) error {
	if len(xs) == 0 || len(xs) != len(labels) {
		return fmt.Errorf("edgedrift: Fit needs matched non-empty samples, got %d/%d", len(xs), len(labels))
	}
	// Validate before any training: by the time Calibrate would notice a
	// non-finite feature, the model would already be poisoned.
	for i, x := range xs {
		if !mat.AllFinite(x) {
			return fmt.Errorf("edgedrift: training sample %d has a non-finite feature", i)
		}
	}
	var tail stats.Running
	for i, x := range xs {
		_, score := m.model.Predict(x)
		if i >= len(xs)/2 {
			tail.Observe(score)
		}
		if labels[i] < 0 || labels[i] >= m.opts.Classes {
			return fmt.Errorf("edgedrift: label %d out of range [0,%d)", labels[i], m.opts.Classes)
		}
		m.model.Train(x, labels[i])
	}
	if m.opts.ErrorThreshold <= 0 {
		z := m.opts.ZError
		if z == 0 {
			z = 2
		}
		// Pin the prequential threshold in place. Rebuilding the detector
		// via core.New here (the old implementation) silently discarded
		// every guard and health counter accumulated before calibration.
		if theta := tail.Mean() + float64(z*tail.Std()); theta > 0 {
			if err := m.det.SetErrorThreshold(theta); err != nil {
				return err
			}
		}
	}
	if err := m.det.Calibrate(xs, labels); err != nil {
		return err
	}
	m.fit = true
	return nil
}

// FitUnsupervised labels the initial data by k-means with C clusters
// (the paper's §3.2 assumption for unlabelled deployments) and then
// behaves like Fit. It returns the cluster labelling it used.
func (m *Monitor) FitUnsupervised(xs [][]float64) ([]int, error) {
	if len(xs) == 0 {
		return nil, errors.New("edgedrift: FitUnsupervised needs samples")
	}
	labels := core.LabelsByKMeans(xs, m.opts.Classes, m.rng.Split())
	if err := m.Fit(xs, labels); err != nil {
		return nil, err
	}
	return labels, nil
}

// Process consumes one sample: it predicts a label, advances the drift
// state machine, and (after a detection) drives the sequential model
// reconstruction. It panics if Fit has not run.
//
// Samples with a non-finite feature are handled by the configured
// GuardPolicy (Options.Guard) before they can change model or centroid
// state; under the default GuardReject they return the last accepted
// Result with Rejected set and are never trained on.
func (m *Monitor) Process(x []float64) Result {
	if !m.fit {
		panic("edgedrift: Process before Fit")
	}
	if m.degraded != nil {
		return m.degraded.Process(x)
	}
	res := m.det.Process(x)
	// The finiteness re-check covers GuardClamp, where the detector
	// processed a repaired copy but x itself still carries the bad values.
	if m.opts.TrainDuringMonitor && !res.Rejected && res.Phase == Monitoring && mat.AllFinite(x) {
		m.model.Train(x, res.Label)
	}
	return res
}

// ProcessBatch consumes a batch of samples in order, appending one
// Result per sample to dst: one Process call per sample, after checking
// every sample's width up front, so a malformed batch panics before any
// sample has advanced the monitor.
func (m *Monitor) ProcessBatch(dst []Result, xs [][]float64) []Result {
	if !m.fit {
		panic("edgedrift: ProcessBatch before Fit")
	}
	inputs := m.model.Config().Inputs
	for _, x := range xs {
		if len(x) != inputs {
			panic(fmt.Sprintf("edgedrift: sample dimension %d, want %d", len(x), inputs))
		}
	}
	for _, x := range xs {
		dst = append(dst, m.Process(x))
	}
	return dst
}

// Health assembles a structured health snapshot of the monitor: guard
// counters, RLS watchdog state, and score-distribution summary. Cheap
// enough to call every sample; intended for operational dashboards and
// periodic logging. While demoted it reports the active twin's health —
// the state actually processing samples.
func (m *Monitor) Health() HealthSnapshot {
	if m.degraded != nil {
		return m.degraded.Health()
	}
	return m.det.Health()
}

// Predict scores x without advancing the detector: it returns the
// predicted class and the anomaly (reconstruction) score.
func (m *Monitor) Predict(x []float64) (label int, score float64) {
	return m.model.Predict(x)
}

// DriftEvents returns the 0-based indices of processed samples on which
// drift was detected. While demoted at f32 it reports the twin's history
// (which continues the origin's); the q16 twin keeps its own flag-only
// view, so the origin's record is returned unchanged.
func (m *Monitor) DriftEvents() []int {
	if t, ok := m.degraded.(*Monitor); ok {
		return t.DriftEvents()
	}
	return m.det.DriftEvents()
}

// Reconstructions returns how many model rebuilds have completed.
func (m *Monitor) Reconstructions() int {
	if t, ok := m.degraded.(*Monitor); ok {
		return t.Reconstructions()
	}
	return m.det.Reconstructions()
}

// PhaseNow returns the current detector phase: the twin's while demoted
// at f32 (the active state machine), the origin's otherwise — a q16
// twin is detect-only, so under it the origin's frozen phase stands.
func (m *Monitor) PhaseNow() Phase {
	if t, ok := m.degraded.(*Monitor); ok {
		return t.PhaseNow()
	}
	return m.det.PhaseNow()
}

// Thresholds returns the active (θ_error, θ_drift) pair — the twin's
// while demoted at f32, since that state machine is the one testing
// samples against them.
func (m *Monitor) Thresholds() (errorThreshold, driftThreshold float64) {
	if t, ok := m.degraded.(*Monitor); ok {
		return t.Thresholds()
	}
	return m.det.ThetaError(), m.det.ThetaDrift()
}

// MemoryBytes audits the retained state of model + detector — the
// number that must fit the target device's RAM. While demoted it counts
// the retained origin AND the active twin: demotion halves the hot
// working set but exact promotability keeps the full-precision state
// resident.
func (m *Monitor) MemoryBytes() int {
	n := m.det.MemoryBytes()
	if m.degraded != nil {
		n += m.degraded.MemoryBytes()
	}
	return n
}

// SetOps attaches an operation counter to every compute kernel in the
// monitor (nil detaches).
func (m *Monitor) SetOps(c *OpCounter) { m.det.SetOps(c) }

// Precision returns the numeric backend the monitor's model computes
// at (Options.Precision).
func (m *Monitor) Precision() Precision { return m.model.Precision() }

// QuantizeQ16 derives the Q16.16 fixed-point port of the fitted
// monitor — the on-device half of a split deployment for FPU-less
// targets. The returned stage predicts labels and raises drift flags in
// pure integer arithmetic; it does not reconstruct (the host retrains
// and ships a fresh artifact). Values that clipped to the Q16.16 range
// during quantisation are surfaced through the stage's
// Health().QuantSaturations counter.
func (m *Monitor) QuantizeQ16() (Streaming, error) {
	fs, err := m.deriveQ16()
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// MergeFingerprint returns the monitor's merge-compatibility
// fingerprint (see core.Merger). Two monitors can exchange merge state
// iff their fingerprints match: same shape, activation, precision, RLS
// constants, and seed topology (bit-identical random projections).
func (m *Monitor) MergeFingerprint() uint64 { return m.det.MergeFingerprint() }

// ExportMergeState serialises the monitor's trained model state into a
// blob a compatible peer's MergeSeed can consume — the unit of
// cooperative fleet learning, shippable across shards.
func (m *Monitor) ExportMergeState() ([]byte, error) {
	if !m.fit {
		return nil, errors.New("edgedrift: ExportMergeState before Fit")
	}
	return m.det.ExportMergeState()
}

// MergeSeed replaces the monitor's model state with the closed-form
// combination of the given peer state blobs (from ExportMergeState on
// merge-compatible monitors). Detector thresholds, centroids and phase
// are untouched; incompatible state is rejected with an error wrapping
// oselm.ErrMergeIncompatible and leaves the monitor unchanged.
func (m *Monitor) MergeSeed(states [][]byte) error {
	if !m.fit {
		return errors.New("edgedrift: MergeSeed before Fit")
	}
	return m.det.MergeSeed(states)
}

var _ core.Merger = (*Monitor)(nil)

// Clone returns a monitor that continues m's stream independently: it
// processes every sample bit-identically to m itself from this point,
// and a clone of a loaded template behaves exactly as another
// LoadMonitor of the same bytes. It is the way to start many streams
// from one fitted template. The clone shares m's
// read-only random projections and, copy-on-write, its learned state
// (β and P): both read the same slabs until one of them trains, resets
// or adopts state, which first takes a private copy. Options, guard
// policy and lifetime diagnostics are carried over (see
// core.Detector.CloneAt). Clone marks m's state shared, so it must not
// run concurrently with m's own use. It fails before Fit, while m is
// demoted and mid-reconstruction.
//
// Until a monitor's first write its MemoryBytes leaves the shared slabs
// out; a Fleet counts each of them once.
func (m *Monitor) Clone() (*Monitor, error) {
	// CloneAt refuses reconstruction too, but only after model.Clone has
	// marked m's state shared; a refusal must leave m as it was.
	switch {
	case !m.fit:
		return nil, errors.New("edgedrift: Clone before Fit")
	case m.degraded != nil:
		return nil, errors.New("edgedrift: Clone of a demoted monitor")
	case m.det.PhaseNow() == Reconstructing:
		return nil, errors.New("edgedrift: Clone during reconstruction")
	}
	mm := m.model.Clone()
	det, err := m.det.CloneAt(mm)
	if err != nil {
		return nil, err
	}
	r := *m.rng
	return &Monitor{opts: m.opts, model: mm, det: det, rng: &r, fit: true}, nil
}

// Detector exposes the underlying core detector for advanced use
// (stage-level op accounting, centroid inspection).
func (m *Monitor) Detector() *core.Detector { return m.det }

// Model exposes the underlying multi-instance model.
func (m *Monitor) Model() *model.Multi { return m.model }

// ScoreMetric re-exports for model configuration.
type ScoreMetric = oselm.ScoreMetric
