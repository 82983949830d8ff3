package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/health"
	"edgedrift/internal/model"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// driftStream draws nPre samples of the trained concept followed by
// nPost samples shifted off it, alternating classes like trainSet.
func driftStream(r *rng.Rand, nPre, nPost int, shift float64) [][]float64 {
	xs := make([][]float64, 0, nPre+nPost)
	for i := 0; i < nPre; i++ {
		xs = append(xs, sample(r, i%testClasses, 0))
	}
	for i := 0; i < nPost; i++ {
		xs = append(xs, sample(r, i%testClasses, shift))
	}
	return xs
}

// poisonEvery returns a copy of xs with a NaN or +Inf feature planted in
// every stride-th sample, plus the clean subset with those samples
// removed — the stream "as if the bad samples had never existed".
func poisonEvery(xs [][]float64, stride int) (poisoned, filtered [][]float64) {
	for i, x := range xs {
		if i%stride == stride-1 {
			bad := append([]float64(nil), x...)
			if i%(2*stride) == stride-1 {
				bad[i%len(bad)] = math.NaN()
			} else {
				bad[0] = math.Inf(1)
			}
			poisoned = append(poisoned, bad)
			continue
		}
		poisoned = append(poisoned, x)
		filtered = append(filtered, x)
	}
	return poisoned, filtered
}

func guardCfg(g GuardPolicy) Config {
	cfg := DefaultConfig(50)
	cfg.NRecon = 300
	cfg.Guard = g
	return cfg
}

// requireSameAccounting fails unless two detectors hold the same op
// counts (overall and per stage, with invocation counts), the same
// Health snapshot once the guard counters named in want are taken out,
// and, when both are monitoring, the same SaveState bytes.
func requireSameAccounting(t *testing.T, got, want *Detector, gotOps, wantOps *opcount.Counter, guard health.Snapshot) {
	t.Helper()
	if *gotOps != *wantOps {
		t.Fatalf("op counter %+v, want %+v", *gotOps, *wantOps)
	}
	for _, s := range Stages() {
		go1, gn := got.StageOps(s)
		wo, wn := want.StageOps(s)
		if go1 != wo || gn != wn {
			t.Fatalf("stage %v: %+v over %d calls, want %+v over %d", s, go1, gn, wo, wn)
		}
	}
	gh, wh := got.Health(), want.Health()
	if gh.Rejected != guard.Rejected || gh.Clamped != guard.Clamped {
		t.Fatalf("guard counters rejected %d clamped %d, want %d and %d", gh.Rejected, gh.Clamped, guard.Rejected, guard.Clamped)
	}
	gh.Rejected, gh.Clamped = wh.Rejected, wh.Clamped
	if gh != wh {
		t.Fatalf("Health %+v, want %+v", gh, wh)
	}
	if want.PhaseNow() == Reconstructing {
		t.Fatal("stream ends mid-reconstruction; SaveState cannot be compared")
	}
	var gb, wb bytes.Buffer
	if err := got.SaveState(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.SaveState(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("SaveState bytes differ")
	}
}

// withOps attaches a fresh op counter to d and returns it.
func withOps(d *Detector) *opcount.Counter {
	c := &opcount.Counter{}
	d.SetOps(c)
	return c
}

// TestGuardRejectBitIdentical is the PR's poison acceptance test: under
// the default GuardReject, a stream interleaved with NaN/Inf samples
// must produce bit-identical drift events and final centroids to the
// same stream with those samples removed, and no Result may carry a
// non-finite field. A refused sample is scored before it is refused
// (the score is the guard's witness), so the op counts, the per-stage
// counts, Health and the saved state must match the filtered stream's
// too.
func TestGuardRejectBitIdentical(t *testing.T) {
	dirty, r := newCalibrated(t, 7, guardCfg(GuardReject))
	clean, _ := newCalibrated(t, 7, guardCfg(GuardReject))
	dirtyOps, cleanOps := withOps(dirty), withOps(clean)
	stream := driftStream(r, 800, 800, 4)
	stream = append(stream, driftStream(r, 0, 400, 4)...) // settle after the drift
	poisoned, filtered := poisonEvery(stream, 37)

	for _, x := range poisoned {
		res := dirty.Process(x)
		if math.IsNaN(res.Score) || math.IsInf(res.Score, 0) || math.IsNaN(res.Dist) || math.IsInf(res.Dist, 0) {
			t.Fatalf("non-finite Result field: %+v", res)
		}
	}
	for _, x := range filtered {
		clean.Process(x)
	}

	if got, want := dirty.Rejected(), uint64(len(poisoned)-len(filtered)); got != want {
		t.Fatalf("Rejected = %d, want %d", got, want)
	}
	if dirty.SamplesSeen() != clean.SamplesSeen() {
		t.Fatalf("samplesSeen %d vs %d", dirty.SamplesSeen(), clean.SamplesSeen())
	}

	de, ce := dirty.DriftEvents(), clean.DriftEvents()
	if len(de) == 0 {
		t.Fatal("no drift detected on the drifting stream")
	}
	if len(de) != len(ce) {
		t.Fatalf("drift events %v vs %v", de, ce)
	}
	for i := range de {
		if de[i] != ce[i] {
			t.Fatalf("drift event %d: index %d vs %d", i, de[i], ce[i])
		}
	}
	for c := 0; c < testClasses; c++ {
		dc, cc := dirty.RecentCentroid(c), clean.RecentCentroid(c)
		for i := range dc {
			if dc[i] != cc[i] {
				t.Fatalf("class %d centroid[%d]: %v vs %v (not bit-identical)", c, i, dc[i], cc[i])
			}
		}
	}
	requireSameAccounting(t, dirty, clean, dirtyOps, cleanOps, health.Snapshot{Rejected: dirty.Rejected()})
}

// TestGuardClampEqualsPreClamped pins GuardClamp to its definition: a
// stream with NaN/±Inf samples gives, sample for sample, the Results of
// the same stream with those samples repaired beforehand (NaN → 0,
// ±Inf → ±ClampLimit), and ends in the same state and accounting.
func TestGuardClampEqualsPreClamped(t *testing.T) {
	dirty, r := newCalibrated(t, 8, guardCfg(GuardClamp))
	clean, _ := newCalibrated(t, 8, guardCfg(GuardClamp))
	dirtyOps, cleanOps := withOps(dirty), withOps(clean)
	stream := driftStream(r, 800, 800, 4)
	stream = append(stream, driftStream(r, 0, 400, 4)...)
	poisoned, _ := poisonEvery(stream, 37)
	limit := dirty.Config().ClampLimit
	bad := 0
	for i, x := range poisoned {
		fixed := append([]float64(nil), x...)
		for j, v := range fixed {
			switch {
			case math.IsNaN(v):
				fixed[j] = 0
			case math.IsInf(v, 1):
				fixed[j] = limit
			case math.IsInf(v, -1):
				fixed[j] = -limit
			default:
				continue
			}
			bad++
		}
		got, want := dirty.Process(x), clean.Process(fixed)
		if got != want {
			t.Fatalf("sample %d: %+v, want %+v", i, got, want)
		}
	}
	// Repaired ±Inf features (±1e12) keep triggering drift; settle both
	// on clean samples so the saved states can be compared.
	for i := 0; clean.PhaseNow() == Reconstructing && i < 2000; i++ {
		x := sample(r, i%testClasses, 4)
		if got, want := dirty.Process(x), clean.Process(x); got != want {
			t.Fatalf("settling sample %d: %+v, want %+v", i, got, want)
		}
	}
	if bad == 0 || dirty.Clamped() == 0 || clean.Clamped() != 0 {
		t.Fatalf("clamped %d (pre-clamped %d) over %d bad features", dirty.Clamped(), clean.Clamped(), bad)
	}
	if de, ce := dirty.DriftEvents(), clean.DriftEvents(); len(de) == 0 || !slices.Equal(de, ce) {
		t.Fatalf("drift events %v, want %v", de, ce)
	}
	requireSameAccounting(t, dirty, clean, dirtyOps, cleanOps, health.Snapshot{Clamped: dirty.Clamped()})
}

func TestGuardRejectReplaysLastGood(t *testing.T) {
	d, r := newCalibrated(t, 3, guardCfg(GuardReject))
	last := d.Process(sample(r, 0, 0))
	bad := []float64{math.NaN(), 1, 2, 3}
	res := d.Process(bad)
	if !res.Rejected {
		t.Fatal("Rejected flag not set")
	}
	if res.DriftDetected {
		t.Fatal("rejection reported a drift")
	}
	if res.Label != last.Label || res.Score != last.Score {
		t.Fatalf("rejection did not replay last good result: %+v vs %+v", res, last)
	}
	if d.SamplesSeen() != 1 {
		t.Fatalf("rejected sample counted: samplesSeen = %d", d.SamplesSeen())
	}
}

func TestGuardClampRepairsWithoutMutatingCaller(t *testing.T) {
	d, _ := newCalibrated(t, 4, guardCfg(GuardClamp))
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2}
	orig := append([]float64(nil), bad...)
	res := d.Process(bad)
	if res.Rejected {
		t.Fatal("clamp policy must not reject")
	}
	if d.Clamped() != 1 {
		t.Fatalf("Clamped = %d, want 1", d.Clamped())
	}
	for i := range bad {
		if !(math.IsNaN(bad[i]) && math.IsNaN(orig[i])) && bad[i] != orig[i] {
			t.Fatalf("caller slice mutated at %d: %v vs %v", i, bad[i], orig[i])
		}
	}
	if math.IsNaN(res.Score) || math.IsInf(res.Score, 0) {
		t.Fatalf("clamped sample produced non-finite score: %+v", res)
	}
}

// TestGuardClampScratchAudited pins the GuardClamp repair scratch into
// MemoryBytes: the only retained-state difference between a clamp and a
// reject detector is the preallocated Inputs-wide buffer.
func TestGuardClampScratchAudited(t *testing.T) {
	clamp, _ := newCalibrated(t, 4, guardCfg(GuardClamp))
	reject, _ := newCalibrated(t, 4, guardCfg(GuardReject))
	want := 8 * clamp.Model().Config().Inputs
	if got := clamp.MemoryBytes() - reject.MemoryBytes(); got != want {
		t.Fatalf("GuardClamp MemoryBytes exceeds GuardReject by %d, want %d", got, want)
	}
	clone, err := clamp.CloneAt(clamp.Model())
	if err != nil {
		t.Fatal(err)
	}
	if clone.MemoryBytes() != clamp.MemoryBytes() {
		t.Fatalf("clone MemoryBytes %d, original %d", clone.MemoryBytes(), clamp.MemoryBytes())
	}
}

func TestGuardPanicPanics(t *testing.T) {
	d, _ := newCalibrated(t, 5, guardCfg(GuardPanic))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic under GuardPanic")
		}
	}()
	d.Process([]float64{math.NaN(), 0, 0, 0})
}

func TestCalibrateRejectsNonFinite(t *testing.T) {
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1006)
	xs, labels := trainSet(r, 100, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	d, err := New(m, DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	xs[10] = []float64{1, math.Inf(-1), 2, 3}
	if err := d.Calibrate(xs, labels); err == nil {
		t.Fatal("Calibrate accepted a non-finite training sample")
	}
}

// TestResultDistOnlyDuringCheck locks the satellite fix: Result.Dist
// must be 0 on samples no check window consumed, instead of replaying
// the last window's stale distance forever.
func TestResultDistOnlyDuringCheck(t *testing.T) {
	d, r := newCalibrated(t, 8, guardCfg(GuardReject))
	stream := driftStream(r, 1200, 400, 4)
	sawStaleWindow := false // a closed window left d.dist non-zero
	for _, x := range stream {
		before := d.PhaseNow()
		res := d.Process(x)
		if before == Reconstructing {
			continue
		}
		consumed := before == Checking || res.Phase == Checking || res.DriftDetected
		if !consumed {
			if res.Dist != 0 {
				t.Fatalf("monitoring sample reported stale Dist %v", res.Dist)
			}
			if d.dist != 0 {
				sawStaleWindow = true // the old bug would have leaked d.dist here
			}
		}
	}
	if !sawStaleWindow {
		t.Skip("stream never exercised the stale-dist condition")
	}
}

func TestDetectorHealthSnapshot(t *testing.T) {
	d, r := newCalibrated(t, 9, guardCfg(GuardReject))
	stream := driftStream(r, 600, 600, 4)
	for i, x := range stream {
		if i%50 == 13 {
			d.Process([]float64{math.NaN(), 0, 0, 0})
		}
		d.Process(x)
	}
	h := d.Health()
	if h.SamplesSeen != len(stream) {
		t.Fatalf("SamplesSeen = %d, want %d", h.SamplesSeen, len(stream))
	}
	if h.Rejected == 0 {
		t.Fatal("Rejected counter empty despite poisoned samples")
	}
	if !h.PFinite || !h.Healthy() {
		t.Fatalf("healthy detector reported unhealthy: %+v", h)
	}
	if h.ScoreSamples == 0 || math.IsNaN(h.ScoreMean) {
		t.Fatalf("score stats missing: %+v", h)
	}
	if h.Phase == "" {
		t.Fatal("Phase missing from snapshot")
	}
	if h.String() == "" {
		t.Fatal("empty health summary string")
	}
}

func savedState(t *testing.T) ([]byte, *model.Multi) {
	t.Helper()
	d, _ := newCalibrated(t, 11, guardCfg(GuardReject))
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), d.Model()
}

func TestLoadStateRejectsEveryTruncation(t *testing.T) {
	full, m := savedState(t)
	for n := 0; n < len(full); n++ {
		if _, err := LoadState(bytes.NewReader(full[:n]), m); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrBadFormat", n, len(full), err)
		}
	}
}

func TestLoadStateRejectsEveryFlippedByte(t *testing.T) {
	full, m := savedState(t)
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x20
		if _, err := LoadState(bytes.NewReader(mut), m); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flipped byte %d/%d: err = %v, want ErrBadFormat", i, len(full), err)
		}
	}
}

func FuzzLoadState(f *testing.F) {
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(12))
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(1012)
	xs, labels := trainSet(r, 200, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		f.Fatal(err)
	}
	d, err := New(m, DefaultConfig(50))
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-4]) // footer missing
	f.Add([]byte("EDDET3"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m2, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadState(bytes.NewReader(data), m2)
		if err == nil && got == nil {
			t.Fatal("nil detector with nil error")
		}
	})
}
