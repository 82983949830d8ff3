package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// The fan workloads run one f64 Monitor at the paper's cooling-fan
// shape (§4.1.2), fed one Process call at a time by a single-goroutine
// closed loop: the deployed steady state (fan-steady) and the same
// monitor under repeated drift and reconstruction (fan-drift).
const (
	fanHidden    = 22
	fanWindow    = 50
	fanNRecon    = 200
	fanTrainN    = 120
	fanPoolN     = 2048 // distinct spectra per fan condition; a power of two, so an odd stride visits all
	fanFlipEvery = 600  // fan-drift: samples between fan-condition flips
	fanWarmup    = 2 * fanFlipEvery
	refChunk     = 64 // ProcessBatch chunk of the reference twin
)

// fanInputs is everything a fan workload feeds the monitor, generated
// from the seed: the training spectra and a pool of stream spectra per
// fan condition, walked with a seeded offset and stride.
type fanInputs struct {
	drift       bool
	trainX      [][]float64
	trainY      []int
	pools       [2][][]float64 // normal spectra; holes spectra on fan-drift
	off, stride int
	digest      uint64
}

func newFanInputs(seed uint64, drift bool) *fanInputs {
	p := coolingfan.DefaultParams()
	p.Seed = seed
	g := coolingfan.NewGenerator(p)
	in := &fanInputs{drift: drift}
	in.trainX, in.trainY = g.TrainingSet(fanTrainN)
	kinds := []coolingfan.FanKind{coolingfan.Normal}
	if drift {
		kinds = append(kinds, coolingfan.Holes)
	}
	for k, kind := range kinds {
		in.pools[k] = make([][]float64, fanPoolN)
		for i := range in.pools[k] {
			in.pools[k][i] = g.Spectrum(kind, coolingfan.Silent)
		}
	}
	r := rng.New(seed).Split()
	in.off = r.Intn(fanPoolN)
	in.stride = 2*r.Intn(fanPoolN/2) + 1
	var d inputDigest
	d.rows(in.trainX)
	d.rows(in.pools[0])
	d.rows(in.pools[1])
	d.ints(in.off, in.stride)
	in.digest = uint64(d)
	return in
}

// at returns stream sample i. On fan-drift the fan condition flips
// between normal and holes every fanFlipEvery samples, starting normal.
func (in *fanInputs) at(i int) []float64 {
	kind := 0
	if in.drift {
		kind = i / fanFlipEvery % 2
	}
	return in.pools[kind][(in.off+i*in.stride)%fanPoolN]
}

// fanState is one built fan workload: the fitted monitor's artifact, the
// monitor under test loaded from it, and the digest of every result the
// monitor has returned, indexed by stream position.
type fanState struct {
	in       *fanInputs
	artifact []byte
	mon      *edgedrift.Monitor
	digests  series
	rejected int64
}

// buildFan generates the inputs, fits the monitor, loads the monitor
// under test from the fitted artifact, and warms it up on the first
// fanWarmup stream samples.
func buildFan(seed uint64, drift bool) (*fanState, error) {
	in := newFanInputs(seed, drift)
	fit, err := edgedrift.New(edgedrift.Options{
		Classes: 1, Inputs: coolingfan.Features, Hidden: fanHidden,
		Window: fanWindow, NRecon: fanNRecon, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if err := fit.Fit(in.trainX, in.trainY); err != nil {
		return nil, err
	}
	var art bytes.Buffer
	if err := fit.Save(&art, edgedrift.Float64); err != nil {
		return nil, err
	}
	st := &fanState{in: in, artifact: art.Bytes()}
	if st.mon, err = st.twin(); err != nil {
		return nil, err
	}
	for st.digests.n < fanWarmup {
		st.record(st.mon.Process(st.in.at(st.digests.n)))
	}
	return st, nil
}

// twin loads a fresh monitor from the fitted artifact.
func (st *fanState) twin() (*edgedrift.Monitor, error) {
	return edgedrift.LoadMonitor(bytes.NewReader(st.artifact))
}

func (st *fanState) record(r edgedrift.Result) {
	st.digests.add(resultDigest(r))
	if r.Rejected {
		st.rejected++
	}
}

// closedLoop feeds the monitor under test one sample at a time for d,
// recording each Process call's latency, and returns how many samples
// it fed and the wall time up to the last completed call.
func (st *fanState) closedLoop(d time.Duration, lat *series) (int, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	n := 0
	for {
		x := st.in.at(st.digests.n)
		a := time.Now()
		r := st.mon.Process(x)
		b := time.Now()
		lat.add(uint64(b.Sub(a)))
		st.record(r)
		n++
		if !b.Before(deadline) {
			return n, b.Sub(start)
		}
	}
}

// feed advances a twin through stream positions [from, to) in
// ProcessBatch chunks, calling check on every result.
func (st *fanState) feed(mon *edgedrift.Monitor, from, to int, check func(i int, r edgedrift.Result)) {
	xs := make([][]float64, 0, refChunk)
	var rs []edgedrift.Result
	for base := from; base < to; base += refChunk {
		xs = xs[:0]
		for i := base; i < base+refChunk && i < to; i++ {
			xs = append(xs, st.in.at(i))
		}
		rs = mon.ProcessBatch(rs[:0], xs)
		for k, r := range rs {
			check(base+k, r)
		}
	}
}

// referenceMismatches replays every sample the monitor under test has
// processed through a twin fed by ProcessBatch and counts the results
// that are not bit-identical: the batch ≡ per-sample contract.
func (st *fanState) referenceMismatches() (int, error) {
	ref, err := st.twin()
	if err != nil {
		return 0, err
	}
	bad := 0
	st.feed(ref, 0, st.digests.n, func(i int, r edgedrift.Result) {
		if resultDigest(r) != st.digests.at(i) {
			bad++
		}
	})
	return bad, nil
}

func fanParams(st *fanState) map[string]any {
	p := map[string]any{
		"inputs": coolingfan.Features, "hidden": fanHidden, "classes": 1,
		"window": fanWindow, "nrecon": fanNRecon, "train_samples": fanTrainN,
		"precision": "f64", "pool_spectra_per_condition": fanPoolN,
		"warmup_samples": fanWarmup, "loop": "closed, 1 goroutine, 1 Process call per step",
		"input_digest": fmt.Sprintf("%016x", st.in.digest),
	}
	if st.in.drift {
		p["flip_every"] = fanFlipEvery
	}
	return p
}

func runFan(cfg config, drift bool) (*outcome, error) {
	build := func() (*fanState, error) { return buildFan(cfg.seed, drift) }
	if cfg.trace {
		st, err := build()
		if err != nil {
			return nil, err
		}
		return traceFan(cfg, st)
	}
	st, setupS, err := setUp(cfg.setups, build, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome(fanParams(st))

	var lat series
	reg := startRegion()
	kept := st.digests.allocated
	n, wall := st.closedLoop(cfg.dur, &lat)
	cpu, alloc := reg.end()
	ownAlloc := lat.allocated + st.digests.allocated - kept

	out.attempted = int64(n)
	out.failed = st.rejected
	q := latencyQuantilesUs(&lat, 0.5, 0.99)
	out.set("samples_per_s", float64(n)/wall.Seconds())
	out.set("latency_p50_us", q[0])
	out.set("latency_p99_us", q[1])
	out.set("latency_samples", float64(n))
	out.set("cpu_us_per_sample", float64(cpu.Microseconds())/float64(n))
	out.set("alloc_bytes_per_sample", float64(int64(alloc)-ownAlloc)/float64(n))
	out.set("retained_bytes", float64(st.mon.MemoryBytes()))
	out.set("setup_s", setupS)

	mismatches, err := st.referenceMismatches()
	if err != nil {
		return nil, err
	}
	out.set("result_mismatches", float64(mismatches))
	if mismatches > 0 {
		out.fail("%d results differ from the ProcessBatch reference twin", mismatches)
	}
	out.set("failed_ratio", float64(out.failed)/float64(n))
	det := evalDetections(st.mon.DriftEvents(), st.digests.n, drift)
	out.set("false_alarms", float64(det.falseAlarms))
	if drift {
		out.set("missed_drifts", float64(det.missed))
		if len(det.delays) > 0 {
			out.set("detect_delay_p50_samples", float64(det.delays[len(det.delays)/2]))
			out.set("detect_delay_max_samples", float64(det.delays[len(det.delays)-1]))
		}
	}
	// The heap is measured with the monitor alone kept alive: the inputs
	// and result logs, dead from here on, are the benchmark's own.
	mon := st.mon
	out.set("heap_inuse_bytes", float64(heapInuseAfterGC()))
	runtime.KeepAlive(mon)
	return out, nil
}

// detections scores a monitor's drift events against the injected
// flips: the first detection after a flip and before the next one is
// that flip's, every other detection is a false alarm, and a flip whose
// segment was fully processed without a detection is missed.
type detections struct {
	delays              []int // sorted
	missed, falseAlarms int
}

func evalDetections(events []int, processed int, drift bool) detections {
	var d detections
	if !drift {
		d.falseAlarms = len(events)
		return d
	}
	found := map[int]bool{}
	for _, e := range events {
		seg := e / fanFlipEvery
		if seg == 0 || found[seg] {
			d.falseAlarms++
			continue
		}
		found[seg] = true
		d.delays = append(d.delays, e-seg*fanFlipEvery)
	}
	for seg := 1; (seg+1)*fanFlipEvery <= processed; seg++ {
		if !found[seg] {
			d.missed++
		}
	}
	sort.Ints(d.delays)
	return d
}

// fanTree is the fan request path: the benchmark's closed-loop step
// calls Monitor.Process (edgedrift), which calls Detector.Process
// (core), which calls Multi.Predict or Train (model), which call the
// instance's Score or Train (oselm), which issue the mat kernels.
var fanTree = map[string]string{
	"request":     "",
	"edgedrift":   "request",
	"core":        "edgedrift",
	"model":       "core",
	"oselm.score": "model",
	"oselm.train": "model",
	"mat.score":   "oselm.score",
	"mat.train":   "oselm.train",
}

// What the detector asks of the model for one sample.
const (
	opScore      = iota // monitoring: Predict
	opTrain             // first half of a reconstruction: Train on the nearest coordinate's label
	opScoreTrain        // second half: Predict, then Train on the prediction
)

// reconSteps follows Algorithm 2 from the phases the results report: a
// sample is processed by the reconstruction when the previous result
// left the detector reconstructing, and its step number decides between
// Train alone and Predict plus Train.
type reconSteps struct {
	prev edgedrift.Phase
	step int
}

// op returns what the detector asks of the model for the next sample.
func (s *reconSteps) op() uint8 {
	if s.prev != edgedrift.Reconstructing {
		s.step = 0
		return opScore
	}
	s.step++
	if s.step < fanNRecon/2 {
		return opTrain
	}
	return opScoreTrain
}

// fanTwins are the replayed layers of the traced fan run, each on its
// own twin loaded from the fitted artifact.
type fanTwins struct {
	det   *core.Detector     // brought to the monitor under test's stream position
	model *model.Multi       // replays Predict/Train as the detector calls them
	ae    *oselm.Autoencoder // replays the instance's Score/Train
	mat   *matReplay         // replays the instance's mat kernels on matOf
	matOf *oselm.Model
}

func (st *fanState) newTwins() (*fanTwins, error) {
	mons := make([]*edgedrift.Monitor, 4)
	for i := range mons {
		var err error
		if mons[i], err = st.twin(); err != nil {
			return nil, err
		}
	}
	st.feed(mons[0], 0, st.digests.n, func(int, edgedrift.Result) {})
	matOf := mons[3].Model().Instance(0).Model()
	return &fanTwins{
		det:   mons[0].Detector(),
		model: mons[1].Model(),
		ae:    mons[2].Model().Instance(0),
		mat:   newMatReplay(matOf.Config()),
		matOf: matOf,
	}, nil
}

// reset restarts the learned state of the model, oselm and mat twins,
// as the detector resets its model when a reconstruction starts: RLS
// state that kept shrinking across reconstructions would turn
// subnormal and slow every kernel down.
func (tw *fanTwins) reset() {
	tw.model.Reset()
	tw.ae.Reset()
	tw.matOf.Reset()
	tw.mat.reset()
}

// replay runs stream sample i through every replayed layer, recording a
// span per call, and returns the Detector twin's result.
func (tw *fanTwins) replay(tr *tracer, i int, x []float64, op uint8) edgedrift.Result {
	a := time.Now()
	r := tw.det.Process(x)
	tr.record("core", i, a, time.Now())

	a = time.Now()
	switch op {
	case opScore:
		tw.model.Predict(x)
	case opTrain:
		tw.model.Train(x, 0)
	case opScoreTrain:
		l, _ := tw.model.Predict(x)
		tw.model.Train(x, l)
	}
	tr.record("model", i, a, time.Now())

	if op != opTrain {
		a = time.Now()
		tw.ae.Score(x)
		tr.record("oselm.score", i, a, time.Now())
		a = time.Now()
		tw.mat.score(tw.matOf, x)
		tr.record("mat.score", i, a, time.Now())
	}
	if op != opScore {
		a = time.Now()
		tw.ae.Train(x)
		tr.record("oselm.train", i, a, time.Now())
		a = time.Now()
		tw.mat.train(tw.matOf, x)
		tr.record("mat.train", i, a, time.Now())
	}
	return r
}

// traceFan is the traced run of a fan workload. For half the run length
// the request path runs traced, and right after each sample the same
// sample is replayed through every deeper layer on its twin, so
// parent and child spans share the moment's machine noise. A quarter of
// the run length then runs untraced, the tracing overhead's baseline.
func traceFan(cfg config, st *fanState) (*outcome, error) {
	out := newOutcome(fanParams(st))
	tw, err := st.newTwins()
	if err != nil {
		return nil, err
	}
	tr := newTracer(fanTree, time.Now())
	steps := reconSteps{prev: st.mon.PhaseNow()}
	b0 := st.digests.n
	window, recon, twinMismatches := 0, 0, 0
	deadline := time.Now().Add(cfg.dur / 2)
	for {
		i := st.digests.n
		t0 := time.Now()
		x := st.in.at(i)
		a := time.Now()
		r := st.mon.Process(x)
		b := time.Now()
		st.record(r)
		t1 := time.Now()
		tr.record("edgedrift", i, a, b)
		tr.record("request", i, t0, t1)

		op := steps.op()
		steps.prev = r.Phase
		if op != opScore && steps.step == 1 {
			tw.reset()
		}
		if resultDigest(tw.replay(tr, i, x, op)) != st.digests.at(i) {
			twinMismatches++
		}
		if r.Dist != 0 {
			window++
		}
		if r.Phase == edgedrift.Reconstructing {
			recon++
		}
		if !t1.Before(deadline) {
			break
		}
	}
	n := st.digests.n - b0
	tracedRate := float64(n) / tr.total["request"].Seconds()
	var lat series
	nu, wall := st.closedLoop(cfg.dur/4, &lat)
	untracedRate := float64(nu) / wall.Seconds()

	mismatches, err := st.referenceMismatches()
	if err != nil {
		return nil, err
	}
	if mismatches+twinMismatches > 0 {
		out.fail("%d results differ from the ProcessBatch reference twin, %d from the Detector twin", mismatches, twinMismatches)
	}
	out.attempted = int64(n + nu)
	out.failed = st.rejected
	out.spans = tr.kept

	per := func(layer string) float64 { return float64(tr.total[layer]) / float64(n) }
	self := func(layer string) float64 { return float64(tr.self(layer)) / float64(n) }
	out.set("trace.requests", float64(n))
	out.set("trace.total_ns_per_sample", per("request"))
	out.set("trace.overhead_pct", 100*(1-tracedRate/untracedRate))
	out.set("unattributed_ns_per_sample", self("request"))
	out.set("edgedrift.self_ns_per_sample", self("edgedrift"))
	out.set("core.self_ns_per_sample", self("core"))
	out.set("core.window_samples", float64(window))
	out.set("core.recon_samples", float64(recon))
	out.set("model.self_ns_per_sample", self("model"))
	out.set("oselm.score_ns_per_sample", per("oselm.score"))
	out.set("oselm.score_self_ns_per_sample", self("oselm.score"))
	out.set("oselm.train_ns_per_sample", per("oselm.train"))
	out.set("oselm.train_self_ns_per_sample", self("oselm.train"))
	out.set("mat.score_ns_per_sample", per("mat.score"))
	out.set("mat.train_ns_per_sample", per("mat.train"))
	return out, nil
}
