package eval

import (
	"fmt"
	"math"

	"edgedrift/internal/core"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/detectors/adwin"
	"edgedrift/internal/detectors/ddm"
	"edgedrift/internal/detectors/quanttree"
	"edgedrift/internal/device"
	"edgedrift/internal/fixed"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// RegistryExtensions returns experiments beyond the paper's evaluation:
// the error-rate detector comparison its related work motivates but does
// not run, and a seed-robustness sweep of the headline NSL-KDD numbers.
func RegistryExtensions() []Experiment {
	return []Experiment{
		{ID: "ext-errorrate", Title: "Extension: error-rate detectors (DDM, ADWIN) need labels the edge does not have", Run: ExtensionErrorRate},
		{ID: "ext-seeds", Title: "Extension: NSL-KDD surrogate robustness across model seeds", Run: ExtensionSeeds},
		{ID: "ext-fixedpoint", Title: "Extension: Q16.16 fixed-point deployment vs float on the Pico model", Run: ExtensionFixedPoint},
		{ID: "ext-incremental", Title: "Extension: incremental drift (the Figure 1 type the paper does not evaluate)", Run: ExtensionIncremental},
		{ID: "ext-realdrift", Title: "Extension: real drift without virtual drift (SEA) — the distribution detectors' blind spot", Run: ExtensionRealDrift},
		{ID: "ext-health", Title: "Extension: non-finite input robustness — guard policies on a poisoned stream", Run: ExtensionHealth},
		{ID: "ext-coop", Title: "Extension: cooperative warm recovery vs per-stream cold rebuild after drift", Run: ExtensionCoop},
		{ID: "ext-scenarios", Title: "Extension: label-delay matrix — hybrid supervised/unsupervised detection and the reoccurring-drift model pool", Run: ExtensionScenarios},
	}
}

// ExtensionErrorRate runs DDM and ADWIN on the NSL-KDD surrogate in two
// regimes: the oracle regime where ground-truth labels grade every
// prediction (unavailable on the paper's target devices), and the
// realistic self-supervised regime where the error signal is the model's
// own anomaly-score threshold crossings. The proposed method, which
// never needs labels, is shown for reference.
//
// Expected shape: with oracle labels the error-rate detectors are fast
// and accurate — §2.2.2's reason they are popular — but with the
// self-supervised signal their detection degrades, while the proposed
// distribution-based method is unaffected because it never consumed
// labels in the first place.
func ExtensionErrorRate(seed uint64) *Outcome {
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	cfg := RunConfig{DriftAt: ds.DriftAt}

	t := &Table{
		Title:   "Extension: error-rate drift detectors on NSL-KDD (drift at 8333)",
		Columns: []string{"detector", "error signal", "accuracy (%)", "delay", "detections"},
		Notes: []string{
			"oracle = ground-truth labels grade each prediction (unavailable on unlabelled edge streams)",
			"self-supervised = error proxy is the anomaly score exceeding the calibrated θ_error",
		},
	}

	type signal struct {
		name   string
		oracle bool
	}
	for _, sig := range []signal{{"oracle labels", true}, {"self-supervised", false}} {
		res := runErrorRateDetector(ds, cfg, seed, sig.oracle, proposedNReconNSL, ddm.New(ddm.Config{}))
		res.Name = "DDM"
		t.AddRow(res.Name, sig.name, pct(res.Accuracy), delayCell(res.Delay), len(res.Detections))

		ad, err := adwin.New(adwin.Config{CheckEvery: 8})
		if err != nil {
			panic(err)
		}
		res = runErrorRateDetector(ds, cfg, seed, sig.oracle, proposedNReconNSL, ad)
		res.Name = "ADWIN"
		t.AddRow(res.Name, sig.name, pct(res.Accuracy), delayCell(res.Delay), len(res.Detections))
	}

	det, err := proposedNSL(ds, 100, seed)
	if err != nil {
		panic(err)
	}
	prop := RunProposed(det, ds.TestX, ds.TestY, cfg)
	t.AddRow("proposed (W=100)", "none (unsupervised)", pct(prop.Accuracy), delayCell(prop.Delay), len(prop.Detections))
	return &Outcome{Tables: []*Table{t}}
}

// runErrorRateDetector wires an error-bit detector to the shared
// OS-ELM model: each prediction produces an error bit (oracle: wrong
// label; self-supervised: anomalous score), detections trigger the same
// sequential reconstruction the proposed method uses. The detector is
// any core.Streaming over a one-feature error stream (x[0] = 1 on a
// graded error) — DDM and ADWIN both are, with no adapter code here.
func runErrorRateDetector(ds *nslkdd.Dataset, cfg RunConfig, seed uint64, oracle bool, nrecon int, errDet core.Streaming) *RunResult {
	m, err := model.New(model.Config{Classes: 2, Inputs: len(ds.TrainX[0]), Hidden: nslHidden, Ridge: 1e-2, Precision: modelPrecision}, rng.New(seed))
	if err != nil {
		panic(err)
	}
	thetaErr, err := trainPrequential(m, ds.TrainX, ds.TrainY)
	if err != nil {
		panic(err)
	}
	// Reconstruction is driven through a detector that never self-fires;
	// the error-rate detector pulls the trigger instead.
	dcfg := core.DefaultConfig(100)
	dcfg.Precision = modelPrecision
	dcfg.NRecon = nrecon
	dcfg.NSearch = 30
	dcfg.NUpdate = nrecon / 3
	dcfg.ErrorThreshold = 1e18
	dcfg.DriftThreshold = 1e18
	det, err := core.New(m, dcfg)
	if err != nil {
		panic(err)
	}
	if err := det.Calibrate(ds.TrainX, ds.TrainY); err != nil {
		panic(err)
	}

	res := &RunResult{Name: "error-rate"}
	c := cfg.withDefaults()
	acc := newAccTracker(c, m.Classes(), maxLabel(ds.TestY)+1)
	errSample := make([]float64, 1)
	for i, x := range ds.TestX {
		r := det.Process(x)
		reconstructing := r.Phase == core.Reconstructing
		mapped := acc.mapper.Map(r.Label)
		acc.observe(i, r.Label, ds.TestY[i])
		if reconstructing {
			continue // the detector is replaying samples into the rebuild
		}
		errSample[0] = 0
		if oracle && mapped != ds.TestY[i] || !oracle && r.Score >= thetaErr {
			errSample[0] = 1
		}
		if errDet.Process(errSample).DriftDetected {
			res.Detections = append(res.Detections, i)
			det.TriggerReconstruction()
			acc.mapper.Reset()
			if rs, ok := errDet.(Resettable); ok {
				rs.Reset() // fresh window for the new concept
			}
		}
	}
	res.Delay = computeDelay(res.Detections, c.DriftAt)
	acc.fill(res)
	return res
}

// ExtensionSeeds reruns the Table 2 headline (baseline vs proposed) over
// several model seeds on the fixed surrogate stream, quantifying how
// much of the comparison is seed luck. The dataset itself stays fixed —
// like the paper's single real stream — and only the random projections
// change.
func ExtensionSeeds(seed uint64) *Outcome {
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	cfg := RunConfig{DriftAt: ds.DriftAt}
	t := &Table{
		Title:   "Extension: model-seed robustness on the fixed NSL-KDD surrogate",
		Columns: []string{"model seed", "baseline acc (%)", "proposed acc (%)", "proposed delay"},
		Notes: []string{
			"the static baseline's post-drift accuracy depends on how the random projection reacts off-manifold; the adaptive methods are far more stable",
		},
	}
	for s := seed; s < seed+5; s++ {
		mBase, err := nslModel(ds, 1, s)
		if err != nil {
			panic(err)
		}
		base := RunStatic(mBase, ds.TestX, ds.TestY, cfg)
		det, err := proposedNSL(ds, 100, s)
		if err != nil {
			panic(err)
		}
		prop := RunProposed(det, ds.TestX, ds.TestY, cfg)
		t.AddRow(s, pct(base.Accuracy), pct(prop.Accuracy), delayCell(prop.Delay))
	}
	return &Outcome{Tables: []*Table{t}}
}

// ExtensionFixedPoint compares the float pipeline against the Q16.16
// fixed-point deployment (internal/fixed) on the cooling-fan stream:
// detection agreement, per-prediction Pico latency, and retained memory.
// This is the quantised-MCU port the paper's Pico demonstration implies
// but does not detail.
func ExtensionFixedPoint(seed uint64) *Outcome {
	gen := coolingfan.NewGenerator(fanParams(seed))
	trainX, trainY := gen.TrainingSet(fanTrainN)
	stream := gen.TestSudden()

	det, err := proposedFan(trainX, trainY, 50, seed)
	if err != nil {
		panic(err)
	}
	mon := fixed.QuantizeDetector(det)

	var fops, qops opcount.Counter
	det.SetOps(&fops)
	mon.SetOps(&qops)

	fDelay, qDelay := -1, -1
	for i, x := range stream.X {
		if det.Process(x).DriftDetected && fDelay < 0 && i >= stream.DriftAt {
			fDelay = i - stream.DriftAt
		}
		if mon.Process(x).DriftDetected && qDelay < 0 && i >= stream.DriftAt {
			qDelay = i - stream.DriftAt
		}
	}

	pico := device.PiPico()
	picoFx := device.PiPicoFixed()
	// Per-prediction cost: label-prediction stage for the float path; the
	// quantised monitor's whole-stream ops divided by samples approximates
	// the same (its detection overhead is minor).
	predOps, n := det.StageOps(core.StageLabelPrediction)
	floatMs := 0.0
	if n > 0 {
		floatMs = pico.Millis(predOps) / float64(n)
	}
	fixedMs := picoFx.Millis(qops) / float64(len(stream.X))

	t := &Table{
		Title:   "Extension: float vs Q16.16 fixed-point deployment on the Pico model",
		Columns: []string{"pipeline", "detection delay", "Pico ms per sample", "retained memory (kB)", "fits 264 kB"},
		Notes: []string{
			"float path: interpreted double-precision software floats (Table 6 calibration)",
			"fixed path: compiled Q16.16 integer MACs + sigmoid LUT; detection deferred to a host after the flag",
		},
	}
	t.AddRow("float64 (full method)", delayCell(fDelay), floatMs, device.KB(det.MemoryBytes()), fits(pico, det.MemoryBytes()))
	t.AddRow("Q16.16 (detect-only)", delayCell(qDelay), fixedMs, device.KB(mon.MemoryBytes()), fits(picoFx, mon.MemoryBytes()))
	return &Outcome{Tables: []*Table{t}}
}

// ExtensionIncremental evaluates the proposed method on the one Figure 1
// drift type the paper's evaluation skips: incremental drift, where the
// distribution itself morphs continuously from old to new. Window size
// interacts differently here — there is no single change point, so the
// detection sample is reported relative to the morph's start, and the
// re-derived thresholds after the first reconstruction determine whether
// the detector keeps re-firing while the morph continues.
func ExtensionIncremental(seed uint64) *Outcome {
	pre := synth.NewGaussian([][]float64{{0, 0, 0, 0}, {5, 5, 5, 5}}, 0.35)
	post := synth.ShiftedGaussian(pre, 6)
	r := rng.New(seed)
	trainX, trainY := synth.TrainingSet(pre, 500, r)
	st, err := synth.Generate(pre, post, 8000, synth.Spec{Kind: synth.Incremental, Start: 1500, End: 6500}, r)
	if err != nil {
		panic(err)
	}
	t := &Table{
		Title:   "Extension: incremental drift (morph over samples 1500-6500)",
		Columns: []string{"window", "first detection (after morph start)", "detections", "reconstructions", "accuracy (%)"},
		Notes: []string{
			"an incremental drift has no single change point: slow morphs can require several reconstructions as the concept keeps moving",
		},
	}
	for _, w := range []int{50, 150, 400} {
		m, err := model.New(model.Config{Classes: 2, Inputs: 4, Hidden: 8, Ridge: 1e-2, Precision: modelPrecision}, rng.New(seed))
		if err != nil {
			panic(err)
		}
		thetaErr, err := trainPrequential(m, trainX, trainY)
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultConfig(w)
		cfg.Precision = modelPrecision
		cfg.NRecon = 400
		cfg.ErrorThreshold = thetaErr
		det, err := core.New(m, cfg)
		if err != nil {
			panic(err)
		}
		if err := det.Calibrate(trainX, trainY); err != nil {
			panic(err)
		}
		res := RunProposed(det, st.X, st.Labels, RunConfig{DriftAt: 1500})
		t.AddRow(fmt.Sprintf("W=%d", w), delayCell(res.Delay), len(res.Detections), res.Reconstructions, pct(res.Accuracy))
	}
	return &Outcome{Tables: []*Table{t}}
}

// ExtensionHealth measures what the ingestion guard buys on a stream
// where a flaky sensor intermittently emits NaN and ±Inf features — the
// failure mode that, unguarded, poisons the centroid running means after
// a single sample and silently disables detection for the rest of the
// deployment. The clean-stream row is the reference; under GuardReject
// the poisoned run refuses the bad samples and recovers the reference
// behaviour on the accepted substream, while GuardClamp trades exactness
// for using every (repaired) sample.
func ExtensionHealth(seed uint64) *Outcome {
	pre := synth.NewGaussian([][]float64{{0, 0, 0, 0}, {5, 5, 5, 5}}, 0.35)
	post := synth.ShiftedGaussian(pre, 6)
	r := rng.New(seed)
	trainX, trainY := synth.TrainingSet(pre, 500, r)
	st, err := synth.Generate(pre, post, 6000, synth.Spec{Kind: synth.Sudden, Start: 2500}, r)
	if err != nil {
		panic(err)
	}

	// Poisoned copy: ~1.6% of samples get a NaN or +Inf feature, the
	// signature of a dropped sensor read or an overflowed fixed-point
	// pre-processing step.
	poison := make([][]float64, len(st.X))
	bad := 0
	for i, x := range st.X {
		px := append([]float64(nil), x...)
		switch {
		case i%83 == 7:
			px[i%len(px)] = math.NaN()
			bad++
		case i%211 == 13:
			px[0] = math.Inf(1)
			bad++
		}
		poison[i] = px
	}

	mkDet := func(g core.GuardPolicy) *core.Detector {
		m, err := model.New(model.Config{Classes: 2, Inputs: 4, Hidden: 8, Ridge: 1e-2, Precision: modelPrecision}, rng.New(seed))
		if err != nil {
			panic(err)
		}
		thetaErr, err := trainPrequential(m, trainX, trainY)
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultConfig(100)
		cfg.Precision = modelPrecision
		cfg.NRecon = 400
		cfg.ErrorThreshold = thetaErr
		cfg.Guard = g
		det, err := core.New(m, cfg)
		if err != nil {
			panic(err)
		}
		if err := det.Calibrate(trainX, trainY); err != nil {
			panic(err)
		}
		return det
	}

	t := &Table{
		Title:   fmt.Sprintf("Extension: non-finite input robustness (%d of %d samples poisoned, drift at 2500)", bad, len(st.X)),
		Columns: []string{"stream", "guard", "accuracy (%)", "delay", "detections", "rejected", "clamped", "P finite"},
		Notes: []string{
			"reject (default) refuses poisoned samples before they touch any state: the accepted substream behaves exactly like the clean stream",
			"clamp repairs NaN→0 and ±Inf→±limit and processes the repaired copy, trading exactness for using every sample",
			"unguarded, a single NaN feature propagates into the centroid running means and every subsequent threshold comparison is false: the detector looks alive but can never fire again",
		},
	}
	for _, rw := range []struct {
		stream string
		xs     [][]float64
		g      core.GuardPolicy
	}{
		{"clean", st.X, core.GuardReject},
		{"poisoned", poison, core.GuardReject},
		{"poisoned", poison, core.GuardClamp},
	} {
		det := mkDet(rw.g)
		res := RunProposed(det, rw.xs, st.Labels, RunConfig{DriftAt: 2500})
		h := res.Health
		t.AddRow(rw.stream, rw.g.String(), pct(res.Accuracy), delayCell(res.Delay),
			len(res.Detections), h.Rejected, h.Clamped, yesNo(h.PFinite))
	}
	return &Outcome{Tables: []*Table{t}}
}

// ExtensionRealDrift demonstrates the blind spot every distribution-based
// detector shares — including the paper's method, QuantTree and SPLL: on
// the SEA-concepts stream the drift changes only the labelling function
// (real drift) while P(x) stays exactly uniform (no virtual drift).
// Distribution detectors see literally nothing; an error-rate detector
// with labels (DDM) sees it immediately. This quantifies the scope
// restriction implicit in the paper's §2.2 taxonomy.
func ExtensionRealDrift(seed uint64) *Outcome {
	r := rng.New(seed)
	pre := &synth.SEA{Theta: 8}
	post := &synth.SEA{Theta: 13}
	trainX, trainY := synth.TrainingSet(pre, 600, r)
	st, err := synth.Generate(pre, post, 6000, synth.Spec{Kind: synth.Sudden, Start: 2000}, r)
	if err != nil {
		panic(err)
	}

	t := &Table{
		Title:   "Extension: real drift without virtual drift (SEA concepts, θ 8 → 13 at sample 2000)",
		Columns: []string{"detector", "needs labels", "detected", "delay", "accuracy (%)"},
		Notes: []string{
			"the SEA drift changes only the labelling function; P(x) is uniform throughout, so no distribution detector can see it",
		},
	}

	mkModel := func() *model.Multi {
		m, err := model.New(model.Config{Classes: 2, Inputs: 3, Hidden: 10, Ridge: 1e-2, Precision: modelPrecision}, rng.New(seed))
		if err != nil {
			panic(err)
		}
		return m
	}

	// Proposed method.
	m := mkModel()
	thetaErr, err := trainPrequential(m, trainX, trainY)
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig(100)
	cfg.Precision = modelPrecision
	cfg.NRecon = 400
	cfg.ErrorThreshold = thetaErr
	det, err := core.New(m, cfg)
	if err != nil {
		panic(err)
	}
	if err := det.Calibrate(trainX, trainY); err != nil {
		panic(err)
	}
	prop := RunProposed(det, st.X, st.Labels, RunConfig{DriftAt: 2000})
	t.AddRow("proposed (W=100)", "no", yesNo(prop.Delay >= 0), delayCell(prop.Delay), pct(prop.Accuracy))

	// QuantTree.
	mQT := mkModel()
	if err := mQT.InitSequential(trainX, trainY); err != nil {
		panic(err)
	}
	qt, err := quanttree.New(trainX, quanttree.Config{Bins: 16, BatchSize: 200, CalibrationTrials: 500}, rng.New(seed+1))
	if err != nil {
		panic(err)
	}
	qres := RunBatch("Quant Tree", mQT, qt, st.X, st.Labels, RunConfig{DriftAt: 2000}, rng.New(seed+2))
	t.AddRow("Quant Tree", "no", yesNo(qres.Delay >= 0), delayCell(qres.Delay), pct(qres.Accuracy))

	// DDM with oracle labels, adaptation through the shared recon path.
	ds := &nslkdd.Dataset{TrainX: trainX, TrainY: trainY, TestX: st.X, TestY: st.Labels, DriftAt: 2000}
	dres := runErrorRateDetector(ds, RunConfig{DriftAt: 2000}, seed, true, 400, ddm.New(ddm.Config{}))
	t.AddRow("DDM (oracle labels)", "yes", yesNo(dres.Delay >= 0), delayCell(dres.Delay), pct(dres.Accuracy))
	t.Notes = append(t.Notes,
		fmt.Sprintf("DDM raised %d detection(s) in total (pre-drift false alarms included)", len(dres.Detections)))
	return &Outcome{Tables: []*Table{t}}
}
