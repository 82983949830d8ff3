package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"edgedrift/internal/health"
	"edgedrift/internal/mat"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/oselm"
	"edgedrift/internal/stats"
)

// DistanceKind selects the centroid metric.
type DistanceKind int

const (
	// L1 is the paper's metric (Algorithm 1 line 14).
	L1 DistanceKind = iota
	// L2 is the Euclidean alternative, used by the ablation benches.
	L2
)

// String implements fmt.Stringer.
func (d DistanceKind) String() string {
	if d == L2 {
		return "l2"
	}
	return "l1"
}

// CentroidUpdate selects how recent test centroids absorb new samples.
type CentroidUpdate int

const (
	// RunningMean is the paper's Algorithm 1 line 12 rule.
	RunningMean CentroidUpdate = iota
	// EWMA weights newer samples more heavily (§3.2's "higher weight to a
	// newer sample" remark); the weight is Config.EWMAGamma.
	EWMA
)

// String implements fmt.Stringer.
func (c CentroidUpdate) String() string {
	if c == EWMA {
		return "ewma"
	}
	return "running-mean"
}

// GuardPolicy selects what Process does with a sample carrying a
// non-finite (NaN/±Inf) feature. Without a guard, a single bad sample —
// a flaky sensor over a months-long deployment — flows into the centroid
// running means and the rank-1 RLS update, after which every distance
// and score is NaN and every threshold comparison silently fails
// forever: the detector looks alive but can never detect drift again.
type GuardPolicy int

const (
	// GuardReject (the default) refuses the sample before it touches any
	// model or centroid state: the rejection counter increments and
	// Process returns the last accepted sample's Result with the Rejected
	// flag set.
	GuardReject GuardPolicy = iota
	// GuardClamp repairs the sample into a scratch buffer (NaN → 0,
	// ±Inf → ±ClampLimit) and processes the repaired copy; the caller's
	// slice is never written.
	GuardClamp
	// GuardPanic panics on the first non-finite feature — for tests and
	// pipelines where a bad sample indicates a bug upstream that must not
	// be papered over.
	GuardPanic
)

// String implements fmt.Stringer.
func (g GuardPolicy) String() string {
	switch g {
	case GuardClamp:
		return "clamp"
	case GuardPanic:
		return "panic"
	default:
		return "reject"
	}
}

// Phase is the detector's state-machine phase.
type Phase int

const (
	// Monitoring: predicting normally, no open check window.
	Monitoring Phase = iota
	// Checking: a window is open and centroid distances accumulate.
	Checking
	// Reconstructing: a drift was detected and the model is being rebuilt.
	Reconstructing
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Monitoring:
		return "monitoring"
	case Checking:
		return "checking"
	case Reconstructing:
		return "reconstructing"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Stage identifies an instrumented compute stage, matching the rows of
// the paper's Table 6.
type Stage int

const (
	// StageLabelPrediction is Algorithm 1 line 6 (and 7).
	StageLabelPrediction Stage = iota
	// StageDistance is Algorithm 1 lines 12–14: the recent-centroid
	// update and the summed centroid distance.
	StageDistance
	// StageRetrainNoPred is Algorithm 2 lines 8–9.
	StageRetrainNoPred
	// StageRetrainWithPred is Algorithm 2 lines 11–12.
	StageRetrainWithPred
	// StageCoordInit is Algorithm 3 (Init_Coord).
	StageCoordInit
	// StageCoordUpdate is Algorithm 4 (Update_Coord).
	StageCoordUpdate
	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageLabelPrediction:
		return "label prediction"
	case StageDistance:
		return "distance computation"
	case StageRetrainNoPred:
		return "model retraining without label prediction"
	case StageRetrainWithPred:
		return "model retraining with label prediction"
	case StageCoordInit:
		return "label coordinates initialization"
	case StageCoordUpdate:
		return "label coordinates update"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Stages lists all instrumented stages in Table 6 order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Config parameterises the detector. Classes and Dims are inferred from
// the model and training data at Calibrate time.
type Config struct {
	// Window is W, the number of samples accumulated before a drift
	// decision (required, ≥ 1).
	Window int
	// ZDrift is z in Eq. 1 for θ_drift; 0 means 1 (the paper's choice).
	ZDrift float64
	// ZError calibrates θ_error as mean + ZError·std of training anomaly
	// scores; 0 means 1. Ignored when ErrorThreshold is set.
	ZError float64
	// ErrorThreshold overrides the calibrated θ_error when > 0.
	ErrorThreshold float64
	// DriftThreshold overrides the calibrated θ_drift when > 0.
	DriftThreshold float64
	// NSearch is Algorithm 2's N_search (samples that refresh label
	// coordinates by Init_Coord); 0 means 2·C+2.
	NSearch int
	// NUpdate is Algorithm 2's N_update (samples that refine coordinates
	// by Update_Coord); 0 means a quarter of NRecon.
	NUpdate int
	// NRecon is Algorithm 2's N, the total samples a reconstruction
	// consumes; 0 means 10·Window (and at least 100).
	NRecon int
	// Distance selects L1 (paper) or L2 centroid distance.
	Distance DistanceKind
	// Update selects RunningMean (paper) or EWMA recent centroids.
	Update CentroidUpdate
	// EWMAGamma is the new-sample weight when Update == EWMA; 0 means 0.05.
	EWMAGamma float64
	// ResetModelOnDrift resets each OS-ELM instance's learned state when
	// a reconstruction starts. Default true (DefaultConfig); turning it
	// off is the "continue sequential update" ablation.
	ResetModelOnDrift bool
	// ResetWindowState restores recent centroids to the trained centroids
	// after a window closes without detecting drift (ablation; the
	// pseudocode keeps them).
	ResetWindowState bool
	// AlwaysCheck opens windows unconditionally instead of gating on
	// θ_error (ablation).
	AlwaysCheck bool
	// Guard selects the non-finite-input policy; the zero value is
	// GuardReject, the production default.
	Guard GuardPolicy
	// ClampLimit is the magnitude ±Inf features are clamped to under
	// GuardClamp; 0 means 1e12.
	ClampLimit float64
	// Precision pins the numeric backend the bound model must compute
	// at; New rejects a model whose precision differs, so a config that
	// says "f32" can never silently run over a float64 model. The zero
	// value (Float64) is also what un-precision-aware callers get, so it
	// doubles as "the historical default" — models at other precisions
	// must be paired with a config that names theirs.
	Precision oselm.Precision
}

// DefaultConfig returns the paper-faithful configuration for a given
// window size.
func DefaultConfig(window int) Config {
	return Config{
		Window:            window,
		ZDrift:            1,
		ZError:            1,
		ResetModelOnDrift: true,
	}
}

func (c Config) withDefaults(classes int) (Config, error) {
	if c.Window <= 0 {
		return c, errors.New("core: Window must be ≥ 1")
	}
	if c.ZDrift == 0 {
		c.ZDrift = 1
	}
	if c.ZError == 0 {
		c.ZError = 1
	}
	if c.NRecon == 0 {
		c.NRecon = 10 * c.Window
		if c.NRecon < 100 {
			c.NRecon = 100
		}
	}
	if c.NSearch == 0 {
		c.NSearch = 2*classes + 2
	}
	if c.NUpdate == 0 {
		c.NUpdate = c.NRecon / 4
	}
	if c.NSearch > c.NRecon || c.NUpdate > c.NRecon {
		return c, fmt.Errorf("core: NSearch (%d) and NUpdate (%d) must not exceed NRecon (%d)", c.NSearch, c.NUpdate, c.NRecon)
	}
	if c.Update == EWMA && c.EWMAGamma == 0 {
		c.EWMAGamma = 0.05
	}
	if c.EWMAGamma < 0 || c.EWMAGamma > 1 {
		return c, fmt.Errorf("core: EWMAGamma %v out of [0,1]", c.EWMAGamma)
	}
	if c.Guard < GuardReject || c.Guard > GuardPanic {
		return c, fmt.Errorf("core: unknown guard policy %d", int(c.Guard))
	}
	if c.ClampLimit == 0 {
		c.ClampLimit = 1e12
	}
	if c.ClampLimit < 0 || math.IsNaN(c.ClampLimit) || math.IsInf(c.ClampLimit, 0) {
		return c, fmt.Errorf("core: ClampLimit %v must be finite and positive", c.ClampLimit)
	}
	return c, nil
}

// Result describes the outcome of processing one sample.
type Result struct {
	// Label is the class predicted for the sample.
	Label int
	// Score is the anomaly (reconstruction) score of the winning
	// instance; it is 0 while reconstructing with coordinate labels.
	Score float64
	// Phase is the detector phase after processing the sample.
	Phase Phase
	// DriftDetected is true exactly on the sample whose window close
	// crossed θ_drift.
	DriftDetected bool
	// Dist is the summed centroid distance accumulated by this sample's
	// window, 0 when no check window consumed the sample. (It used to
	// report the previous window's stale distance between checks.)
	Dist float64
	// Rejected is true when the ingestion guard refused the sample
	// (non-finite feature under GuardReject); the remaining fields replay
	// the last accepted sample's result, except DriftDetected which is
	// always false on a rejection.
	Rejected bool
}

// Detector is the proposed sequential drift detector bound to a
// multi-instance discriminative model. It is not safe for concurrent
// use; the fleet layer (internal/fleet) is the concurrent entry point.
type Detector struct {
	// cfg is read-only once the detector holds it, so a clone shares its
	// source's (CloneAt); SetErrorThreshold, its one writer, swaps in a
	// copy.
	cfg     *Config
	model   *model.Multi
	classes int
	dims    int

	// The centroids are C×D row-major slabs, one row per class (see
	// row).
	trainCor []float64 // trained centroids (see corShared)
	cor      []float64 // recent test centroids
	num      []int     // per-class sample counts backing the running mean
	baseNum  []int     // counts at calibration, for ResetWindowState; one allocation with num

	thetaError float64
	thetaDrift float64

	drift bool
	check bool
	win   int
	dist  float64

	// Reconstruction state. The threshold re-estimators are Welford
	// accumulators, not sample buffers — reconstruction must stay O(1) in
	// memory like everything else in the method.
	count       int
	reconDists  stats.Running // coordinate distances, predicted-label phase
	reconScores stats.Running // model scores, predicted-label phase
	starve      []int         // consecutive lost assignments per coordinate

	samplesSeen int
	driftEvents []int // sample indices (0-based) where drift was detected
	reconsDone  int

	calibrated bool
	// corShared marks trainCor as slabs shared with a clone or its
	// source (see CloneAt): every writer calls ownTrainCor first.
	corShared bool

	// Ingestion-guard state (Config.Guard): samples refused and
	// repaired, the last accepted Result a GuardReject rejection
	// replays, and the GuardClamp repair scratch (preallocated by New).
	rejected uint64
	clamped  uint64
	lastGood Result
	clampBuf []float64
	// divergences counts monitoring samples whose score came back
	// non-finite despite finite input (the model state itself diverged).
	divergences uint64
	// merges counts cooperative peer-state merges applied to the model
	// (MergeSeed); surfaced through Health.
	merges uint64
	// driftHook, when set, runs at the top of every detected-drift
	// transition, before the detector flips to Reconstructing and before
	// ResetModelOnDrift clears the model — the only instant the outgoing
	// model and its calibrated detector state are both still intact and
	// serialisable. The model pool checkpoints from here.
	driftHook func()

	ops *opcount.Counter
	// stageOps holds the per-stage operation tallies; SetOps allocates
	// it with the first counter, so a detector that never counts
	// operations does not carry the table. stageN counts every run.
	stageOps *[numStages]opcount.Counter
	stageN   [numStages]uint64

	scoreHist stats.Running    // anomaly scores seen while monitoring (diagnostics)
	scoreBins *stats.Histogram // score distribution over [0, 4·θ_error), for health
}

// New binds a detector to a model. Calibrate must be called before
// Process.
func New(m *model.Multi, cfg Config) (*Detector, error) {
	c, err := cfg.withDefaults(m.Classes())
	if err != nil {
		return nil, err
	}
	if c.Precision != m.Precision() {
		return nil, fmt.Errorf("core: config precision %v does not match model precision %v", c.Precision, m.Precision())
	}
	return newDetector(m, &c), nil
}

// newDetector binds a detector to m under the defaulted configuration
// c, which it holds and never writes.
func newDetector(m *model.Multi, c *Config) *Detector {
	d := &Detector{
		cfg:     c,
		model:   m,
		classes: m.Classes(),
		dims:    m.Config().Inputs,
	}
	if c.Guard == GuardClamp {
		// Pre-size the repair scratch so the hot path stays 0-alloc.
		d.clampBuf = make([]float64, d.dims)
	}
	return d
}

// Config returns the defaulted configuration.
func (d *Detector) Config() Config { return *d.cfg }

// Model returns the bound discriminative model.
func (d *Detector) Model() *model.Multi { return d.model }

// SetOps attaches an operation counter to the detector and its model.
func (d *Detector) SetOps(c *opcount.Counter) {
	d.ops = c
	if c != nil && d.stageOps == nil {
		d.stageOps = new([numStages]opcount.Counter)
	}
	d.model.SetOps(c)
}

// ThetaError and ThetaDrift return the active thresholds.
func (d *Detector) ThetaError() float64 { return d.thetaError }

// SetErrorThreshold pins θ_error in place, before or after Calibrate.
// Called before, it records the override so Calibrate skips the
// training-score estimate; called after, it also swaps the live
// threshold and re-bins the health histogram around it. Unlike
// rebuilding the detector through New, it preserves every accumulated
// counter — guard rejections, divergences, stage op tallies — which is
// the point: calibration should pin a number, not erase history.
func (d *Detector) SetErrorThreshold(theta float64) error {
	if !(theta > 0) || math.IsInf(theta, 0) {
		return fmt.Errorf("core: error threshold %v must be finite and positive", theta)
	}
	c := *d.cfg
	c.ErrorThreshold = theta
	d.cfg = &c
	if d.calibrated {
		d.thetaError = theta
		d.initScoreBins()
	}
	return nil
}

// ThetaDrift returns the active drift threshold θ_drift.
func (d *Detector) ThetaDrift() float64 { return d.thetaDrift }

// PhaseNow returns the current phase.
func (d *Detector) PhaseNow() Phase {
	switch {
	case d.drift:
		return Reconstructing
	case d.check:
		return Checking
	default:
		return Monitoring
	}
}

// DriftEvents returns the 0-based indices of samples on which drift was
// detected, in order.
func (d *Detector) DriftEvents() []int {
	out := make([]int, len(d.driftEvents))
	copy(out, d.driftEvents)
	return out
}

// Reconstructions returns how many reconstructions have completed.
func (d *Detector) Reconstructions() int { return d.reconsDone }

// SamplesSeen returns the number of Process calls.
func (d *Detector) SamplesSeen() int { return d.samplesSeen }

// TrainedCentroid returns a copy of class c's trained centroid.
func (d *Detector) TrainedCentroid(c int) []float64 { return mat.CopyVec(d.row(d.trainCor, c)) }

// RecentCentroid returns a copy of class c's recent test centroid.
func (d *Detector) RecentCentroid(c int) []float64 { return mat.CopyVec(d.row(d.cor, c)) }

// row returns class c's centroid in the C×D slab cs.
func (d *Detector) row(cs []float64, c int) []float64 {
	return cs[c*d.dims : (c+1)*d.dims]
}

// StageOps returns the accumulated operation counts and invocation count
// for a stage.
func (d *Detector) StageOps(s Stage) (opcount.Counter, uint64) {
	if d.stageOps == nil {
		return opcount.Counter{}, d.stageN[s]
	}
	return d.stageOps[s], d.stageN[s]
}

// distance returns the configured metric between two vectors, counting
// ops.
func (d *Detector) distance(a, b []float64) float64 {
	d.chargeDistance(len(a))
	if d.cfg.Distance == L2 {
		return mat.L2Dist(a, b)
	}
	return mat.L1Dist(a, b)
}

// chargeDistance charges the operation counter for one distance between
// n-vectors under the configured metric.
func (d *Detector) chargeDistance(n int) {
	if d.cfg.Distance == L2 {
		d.ops.AddMulAdd(n)
	} else {
		d.ops.AddAbs(n)
	}
	d.ops.AddAdd(n)
}

// centroidDist is Algorithm 1 line 14: the summed distance between every
// recent and trained centroid pair.
func (d *Detector) centroidDist() float64 {
	var s float64
	for c := 0; c < d.classes; c++ {
		s += d.distance(d.row(d.cor, c), d.row(d.trainCor, c))
	}
	return s
}

// windowStep is Algorithm 1 lines 12–14 for one window sample: fold x
// into label's recent centroid, then return centroidDist. Under the
// paper's running mean and L1 metric the label's centroid is updated
// and measured in one pass (mat.RunningMeanUpdateL1Dist); the sum keeps
// class order, so the bits and the op counts are those of updateRecent
// followed by centroidDist, which the ablations still call.
func (d *Detector) windowStep(label int, x []float64) float64 {
	if d.cfg.Update != RunningMean || d.cfg.Distance != L1 {
		d.updateRecent(label, x)
		return d.centroidDist()
	}
	d.ops.AddMulAdd(d.dims)
	d.ops.AddDiv(d.dims)
	var s, dist float64
	for c := 0; c < d.classes; c++ {
		cor, trained := d.row(d.cor, c), d.row(d.trainCor, c)
		if c == label {
			d.chargeDistance(d.dims)
			d.num[c], dist = mat.RunningMeanUpdateL1Dist(cor, d.num[c], x, trained)
		} else {
			dist = d.distance(cor, trained)
		}
		s += dist
	}
	return s
}

// Calibrate computes trained centroids, per-class counts and both
// thresholds from the labelled training set, per §3.2 and Eq. 1. The
// model must already be trained on the same data. Unsupervised callers
// can obtain labels from k-means (see LabelsByKMeans in this package).
func (d *Detector) Calibrate(xs [][]float64, labels []int) error {
	if len(xs) == 0 || len(xs) != len(labels) {
		return fmt.Errorf("core: calibration needs matched non-empty samples, got %d/%d", len(xs), len(labels))
	}
	if len(xs[0]) != d.dims {
		return fmt.Errorf("core: sample dimension %d, want %d", len(xs[0]), d.dims)
	}
	d.trainCor, d.corShared = make([]float64, d.classes*d.dims), false
	d.cor = make([]float64, d.classes*d.dims)
	d.num, d.baseNum = newCounts(d.classes)
	for i, x := range xs {
		l := labels[i]
		if l < 0 || l >= d.classes {
			return fmt.Errorf("core: label %d out of range [0,%d)", l, d.classes)
		}
		if !mat.AllFinite(x) {
			return fmt.Errorf("core: training sample %d has a non-finite feature", i)
		}
		d.num[l] = mat.RunningMeanUpdate(d.row(d.trainCor, l), d.num[l], x)
	}
	copy(d.cor, d.trainCor)
	for c := range d.num {
		if d.num[c] == 0 {
			return fmt.Errorf("core: class %d has no training samples", c)
		}
	}
	copy(d.baseNum, d.num)

	// Eq. 1: θ_drift from the distribution of distances between each
	// training sample and "the centroid of its predicted label" (§3.4) —
	// predicted, not given: ambiguous samples land near the centroid the
	// model assigns them to, keeping the threshold tight.
	dists := make([]float64, len(xs))
	for i, x := range xs {
		pred, _ := d.model.Predict(x)
		dists[i] = d.distance(x, d.row(d.trainCor, pred))
	}
	mu, sigma := stats.MeanStd(dists)
	if d.cfg.DriftThreshold > 0 {
		d.thetaDrift = d.cfg.DriftThreshold
	} else {
		d.thetaDrift = mu + float64(d.cfg.ZDrift*sigma)
	}

	// θ_error from the model's anomaly scores on the training set.
	if d.cfg.ErrorThreshold > 0 {
		d.thetaError = d.cfg.ErrorThreshold
	} else {
		scores := make([]float64, len(xs))
		for i, x := range xs {
			_, scores[i] = d.model.Predict(x)
		}
		m2, s2 := stats.MeanStd(scores)
		d.thetaError = m2 + float64(d.cfg.ZError*s2)
	}

	d.initScoreBins()

	d.drift, d.check, d.win, d.dist, d.count = false, false, 0, 0, 0
	d.reconDists.Reset()
	d.reconScores.Reset()
	d.calibrated = true
	return nil
}

// newCounts returns zeroed per-class counts num and baseNum, in one
// allocation.
func newCounts(classes int) (num, baseNum []int) {
	n := make([]int, 2*classes)
	return n[:classes:classes], n[classes:]
}

// ownTrainCor gives d private trained centroids before a write when it
// still shares them with a clone or its source, copying the shared
// values. The shared slab itself is never written.
func (d *Detector) ownTrainCor() {
	if !d.corShared {
		return
	}
	d.trainCor, d.corShared = slices.Clone(d.trainCor), false
}

// EachShared calls fn once for every group of slabs d holds in common
// with its clones and leaves out of its own MemoryBytes: the trained
// centroids until d's first write to them, and each model instance's
// shared slabs and scratch list (see model.Multi.EachShared). key is
// the same for every holder of a group, so an audit that counts each
// key once counts each slab once.
func (d *Detector) EachShared(fn func(key any, bytes int)) {
	if d.corShared {
		fn(&d.trainCor[0], 8*d.classes*d.dims)
	}
	d.model.EachShared(fn)
}

// initScoreBins (re)creates the health histogram of monitoring scores
// over [0, 4·θ_error) — wide enough to show the drift-triggering tail
// without letting outliers flatten the resolution near the threshold.
func (d *Detector) initScoreBins() {
	hi := 4 * d.thetaError
	if !(hi > 0) || math.IsInf(hi, 0) {
		hi = 1
	}
	d.scoreBins = stats.NewHistogram(0, hi, 16)
}

// stage wraps fn with per-stage op accounting.
func (d *Detector) stage(s Stage, fn func()) {
	if d.ops == nil {
		d.stageN[s]++
		fn()
		return
	}
	before := *d.ops
	fn()
	d.stageOps[s].AddCounter(d.ops.Sub(before))
	d.stageN[s]++
}

// Process consumes one sample and advances the state machine
// (Algorithm 1). It panics if Calibrate has not run.
//
// Samples carrying a non-finite feature never change the model or
// centroid state; the Config.Guard policy handles them first. Under
// the default GuardReject the accepted-sample stream behaves exactly as
// if the bad samples had never existed — same drift events, same
// centroids, bit for bit — and the rejected sample returns the last
// accepted Result with Rejected set. GuardClamp repairs the sample into
// a scratch buffer (NaN → 0, ±Inf → ±ClampLimit) and processes the
// repaired copy; the caller's slice is never written. GuardPanic
// panics, for pipelines where a bad sample indicates an upstream bug.
func (d *Detector) Process(x []float64) Result {
	if !d.calibrated {
		panic("core: Process before Calibrate")
	}
	if len(x) != d.dims {
		panic(fmt.Sprintf("core: sample dimension %d, want %d", len(x), d.dims))
	}
	return d.process(x)
}

// ProcessBatch consumes the samples of xs in order, appending one
// Result each to dst: one Process call per sample, after checking every
// sample's width up front so a malformed batch panics before any sample
// changes state.
func (d *Detector) ProcessBatch(dst []Result, xs [][]float64) []Result {
	if !d.calibrated {
		panic("core: Process before Calibrate")
	}
	for _, x := range xs {
		if len(x) != d.dims {
			panic(fmt.Sprintf("core: sample dimension %d, want %d", len(x), d.dims))
		}
	}
	for _, x := range xs {
		dst = append(dst, d.process(x))
	}
	return dst
}

// process runs one sample through the state machine behind the
// ingestion guard. While monitoring, the score is the guard's witness:
// every score metric sums a term in each feature at float64 on both
// backends, so a NaN or ±Inf feature always makes the winning score
// NaN or +Inf, and scoring writes no model or detector state. So the
// sample is scored first and scanned (mat.AllFinite) only when its
// score is not finite; a refused sample's prediction is then taken
// back from the op counters, leaving every counter as if it had never
// been scored. Reconstruction writes state before any score exists, so
// there x is scanned up front. The scan is integer-pipeline work (one
// subtract and add per feature) and is deliberately not op-counted:
// the paper's Table 5/6 cost model tracks floating-point arithmetic on
// the data path.
func (d *Detector) process(x []float64) Result {
	if d.drift {
		if !mat.AllFinite(x) {
			return d.refuse(x)
		}
		d.samplesSeen++
		d.lastGood = d.reconstructStep(x)
		return d.lastGood
	}
	var ops, stageOps opcount.Counter
	if d.ops != nil {
		ops, stageOps = *d.ops, d.stageOps[StageLabelPrediction]
	}
	var label int
	var score float64
	d.stage(StageLabelPrediction, func() {
		label, score = d.model.Predict(x)
	})
	if (math.IsNaN(score) || math.IsInf(score, 0)) && !mat.AllFinite(x) {
		if d.ops != nil {
			*d.ops, d.stageOps[StageLabelPrediction] = ops, stageOps
		}
		d.stageN[StageLabelPrediction]--
		return d.refuse(x)
	}
	d.samplesSeen++
	d.lastGood = d.monitorStep(x, label, score)
	return d.lastGood
}

// refuse applies the Config.Guard policy to a sample carrying a
// non-finite feature, before it has changed any state.
func (d *Detector) refuse(x []float64) Result {
	switch d.cfg.Guard {
	case GuardPanic:
		panic("core: non-finite feature in sample (GuardPanic policy)")
	case GuardClamp:
		d.clamped++
		return d.process(d.clampInto(x))
	default: // GuardReject
		d.rejected++
		res := d.lastGood
		res.Rejected = true
		res.DriftDetected = false
		res.Phase = d.PhaseNow()
		return res
	}
}

// clampInto copies x into the repair scratch with non-finite features
// repaired: NaN → 0, ±Inf → ±ClampLimit. Finite features pass through
// untouched, however large — the guard repairs corruption, it does not
// editorialise about outliers.
func (d *Detector) clampInto(x []float64) []float64 {
	buf := d.clampBuf[:len(x)]
	for i, v := range x {
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = d.cfg.ClampLimit
		case math.IsInf(v, -1):
			v = -d.cfg.ClampLimit
		}
		buf[i] = v
	}
	return buf
}

// monitorStep is the Algorithm 1 state machine for an admitted (under
// GuardClamp, repaired) sample that the model has already scored.
func (d *Detector) monitorStep(x []float64, label int, score float64) Result {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		// The input was finite, so the model's own state has diverged
		// (e.g. RLS blow-up between watchdog passes). Degrade gracefully:
		// rebuild the model through the reconstruction path instead of
		// comparing NaN against θ_error forever. Not recorded as a drift
		// event — it is a health event, visible in Health().
		d.divergences++
		d.scoreBins.Observe(score) // counted as dropped, keeping loss visible
		d.enterReconstruction(false)
		return Result{Phase: Reconstructing}
	}
	d.scoreHist.Observe(score)
	d.scoreBins.Observe(score)

	res := Result{Label: label, Score: score}

	if !d.check && (d.cfg.AlwaysCheck || score >= d.thetaError) {
		d.ops.AddCmp(1)
		d.check = true
		d.win = 0
	} else if !d.check {
		d.ops.AddCmp(1)
	}

	if d.check && d.win < d.cfg.Window {
		d.stage(StageDistance, func() {
			d.dist = d.windowStep(label, x)
		})
		d.win++
		// Dist is reported only on samples a window actually consumed;
		// capture it before a close can reset the window state.
		res.Dist = d.dist
		if d.win == d.cfg.Window {
			d.ops.AddCmp(1)
			if d.dist >= d.thetaDrift {
				d.enterReconstruction(true)
				res.DriftDetected = true
			} else if d.cfg.ResetWindowState {
				d.resetRecent()
			}
			d.check = false
		}
	}

	res.Phase = d.PhaseNow()
	return res
}

// updateRecent applies the configured recent-centroid update for label.
func (d *Detector) updateRecent(label int, x []float64) {
	switch d.cfg.Update {
	case EWMA:
		mat.EWMAUpdate(d.row(d.cor, label), d.cfg.EWMAGamma, x)
		d.num[label]++
		d.ops.AddMulAdd(2 * d.dims)
	default:
		d.num[label] = mat.RunningMeanUpdate(d.row(d.cor, label), d.num[label], x)
		d.ops.AddMulAdd(d.dims)
		d.ops.AddDiv(d.dims)
	}
}

// resetRecent restores recent centroids and counts to their calibrated
// values (ResetWindowState ablation).
func (d *Detector) resetRecent() {
	copy(d.cor, d.trainCor)
	copy(d.num, d.baseNum)
	d.dist = 0
}

// TriggerReconstruction forces the detector into the Algorithm 2
// reconstruction mode, as if a drift had just been detected on the most
// recent sample. It exists so external detection signals (the batch
// baselines, an operator command) can drive the same adaptation path the
// internal detector uses.
func (d *Detector) TriggerReconstruction() {
	if !d.calibrated {
		panic("core: TriggerReconstruction before Calibrate")
	}
	if d.drift {
		return // already reconstructing
	}
	d.enterReconstruction(true)
}

// enterReconstruction flips the state machine into Reconstructing.
// recordEvent distinguishes a detected drift (logged in DriftEvents)
// from a health-driven model rebuild (counted in Health only): the drift
// event list is an evaluation artefact and must match the paper's
// detection semantics exactly.
func (d *Detector) enterReconstruction(recordEvent bool) {
	if recordEvent && d.driftHook != nil {
		// Run before any state flips: the hook must see the outgoing
		// model pre-reset and a detector that SaveState still accepts.
		d.driftHook()
	}
	d.drift = true
	d.check = false
	if recordEvent {
		d.driftEvents = append(d.driftEvents, d.samplesSeen-1)
	}
	d.beginReconstruction()
}

// SetDriftHook registers fn to run at the start of every detected-drift
// transition (TriggerReconstruction included; health-driven divergence
// rebuilds excluded — there is nothing worth checkpointing about a
// diverged model). The hook runs with the detector still in its
// pre-drift state; it must not call Process. A nil fn clears the hook.
func (d *Detector) SetDriftHook(fn func()) { d.driftHook = fn }

// Rejected returns how many samples the ingestion guard refused
// (GuardReject policy).
func (d *Detector) Rejected() uint64 { return d.rejected }

// Clamped returns how many samples the ingestion guard repaired
// (GuardClamp policy).
func (d *Detector) Clamped() uint64 { return d.clamped }

// Health assembles the detector's structured health snapshot: guard
// counters, the aggregated RLS watchdog view across all model
// instances, and the monitoring-score distribution summary.
func (d *Detector) Health() health.Snapshot {
	mh := d.model.Health()
	// The running monitoring-score moments: the live counterpart of the
	// θ_error calibration.
	n, mean, std := d.scoreHist.N(), d.scoreHist.Mean(), d.scoreHist.Std()
	s := health.Snapshot{
		SamplesSeen:      d.samplesSeen,
		Rejected:         d.rejected,
		Clamped:          d.clamped,
		ModelDivergences: d.divergences,
		WatchdogResets:   mh.WatchdogResets,
		PTraceMax:        mh.PTrace,
		PFinite:          mh.PFinite && mh.BetaFinite,
		ScoreSamples:     n,
		ScoreMean:        mean,
		ScoreStd:         std,
		Merges:           d.merges,
		Phase:            d.PhaseNow().String(),
	}
	if d.scoreBins != nil {
		s.ScoreHistDropped = d.scoreBins.Dropped()
		s.ScoreHistTotal = d.scoreBins.Total()
	}
	return s
}

// MemoryBytes audits the detector's retained state: the discriminative
// model plus two centroid sets, counts and O(1) accumulators — the
// quantity the paper's Table 4 compares against the batch methods'
// buffers — and the scratch buffers the hot paths keep. The batch
// staging lives in the model's scratch and is counted there.
//
// Trained centroids still shared with a clone or its source are left
// out, as the model leaves out its shared slabs; EachShared names them.
func (d *Detector) MemoryBytes() int {
	const f = 8
	centroids := 2 * d.classes * d.dims * f // trained + recent
	if d.corShared {
		centroids -= d.classes * d.dims * f
	}
	counts := 2 * d.classes * 8  // num + baseNum
	scalars := 16 * f            // thresholds, window state, accumulators
	clamp := 8 * len(d.clampBuf) // GuardClamp only
	return d.model.MemoryBytes() + centroids + counts + scalars + clamp
}

// beginReconstruction transitions into Algorithm 2. The per-class counts
// are reset to 1 so the running-mean coordinates can actually follow the
// new concept: counts inherited from training (thousands of samples)
// would freeze the coordinates for the whole reconstruction. The paper's
// pseudocode leaves num untouched, but with that reading Update_Coord
// moves each coordinate by at most N_update/num — effectively nothing —
// and the rebuilt model would re-detect the same drift forever.
func (d *Detector) beginReconstruction() {
	d.count = 0
	d.reconDists.Reset()
	d.reconScores.Reset()
	if d.starve == nil {
		d.starve = make([]int, d.classes)
	}
	for c := range d.num {
		d.num[c] = 1
		d.starve[c] = 0
	}
	if d.cfg.ResetModelOnDrift {
		d.model.Reset()
	}
}
