package core

import (
	"testing"
	"testing/quick"

	"edgedrift/internal/model"
	"edgedrift/internal/rng"
)

// buildDetector constructs a small calibrated detector for property
// tests; every knob is derived from the quick-check seed.
func buildDetector(seed uint64, window int) (*Detector, *rng.Rand, error) {
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 6, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	r := rng.New(seed + 7777)
	xs, labels := trainSet(r, 200, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		return nil, nil, err
	}
	cfg := DefaultConfig(window)
	cfg.NRecon = 120
	d, err := New(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := d.Calibrate(xs, labels); err != nil {
		return nil, nil, err
	}
	return d, r, nil
}

// Property: the detector is a deterministic function of its inputs — two
// identically-built detectors fed the same stream agree on every output.
func TestPropDeterministic(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		w := int(wRaw%40) + 5
		a, ra, err := buildDetector(seed, w)
		if err != nil {
			return false
		}
		b, _, err := buildDetector(seed, w)
		if err != nil {
			return false
		}
		for i := 0; i < 400; i++ {
			shift := 0.0
			if i > 200 {
				shift = 4
			}
			x := sample(ra, i%testClasses, shift)
			res1 := a.Process(x)
			res2 := b.Process(x)
			if res1 != res2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: phase transitions are legal — Monitoring↔Checking freely,
// Checking→Reconstructing only via a DriftDetected sample, and
// Reconstructing ends only by returning to Monitoring.
func TestPropLegalPhaseTransitions(t *testing.T) {
	f := func(seed uint64) bool {
		d, r, err := buildDetector(seed, 20)
		if err != nil {
			return false
		}
		prev := Monitoring
		for i := 0; i < 1500; i++ {
			shift := 0.0
			if i > 500 {
				shift = 4
			}
			res := d.Process(sample(r, i%testClasses, shift))
			switch {
			case prev == Monitoring && res.Phase == Reconstructing && !res.DriftDetected:
				return false // cannot jump to reconstruction without a detection
			case prev == Checking && res.Phase == Reconstructing && !res.DriftDetected:
				return false
			case res.DriftDetected && res.Phase != Reconstructing:
				return false // a detection must enter reconstruction
			}
			prev = res.Phase
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-class counts never decrease while monitoring a single
// window and stay ≥ 1 always, and centroids never contain NaNs.
func TestPropStateSanity(t *testing.T) {
	f := func(seed uint64) bool {
		d, r, err := buildDetector(seed, 15)
		if err != nil {
			return false
		}
		for i := 0; i < 1000; i++ {
			shift := 0.0
			if i > 400 {
				shift = 4
			}
			d.Process(sample(r, i%testClasses, shift))
			for c := 0; c < testClasses; c++ {
				if d.num[c] < 1 {
					return false
				}
				for _, v := range d.row(d.cor, c) {
					if v != v { // NaN
						return false
					}
				}
				for _, v := range d.row(d.trainCor, c) {
					if v != v {
						return false
					}
				}
			}
			if d.thetaDrift != d.thetaDrift || d.thetaError != d.thetaError {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: memory is O(1) — the detector's audited footprint never
// changes over the stream, drifts and reconstructions included.
func TestPropConstantMemory(t *testing.T) {
	f := func(seed uint64) bool {
		d, r, err := buildDetector(seed, 10)
		if err != nil {
			return false
		}
		base := d.MemoryBytes()
		for i := 0; i < 1200; i++ {
			shift := 0.0
			if i > 300 {
				shift = 5
			}
			d.Process(sample(r, i%testClasses, shift))
			if d.MemoryBytes() != base {
				return false
			}
		}
		// At least one reconstruction must have happened for the property
		// to have covered the interesting path.
		return d.Reconstructions() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: drift events are strictly increasing sample indices, and
// SamplesSeen counts every Process call.
func TestPropEventBookkeeping(t *testing.T) {
	f := func(seed uint64) bool {
		d, r, err := buildDetector(seed, 10)
		if err != nil {
			return false
		}
		const n = 1500
		for i := 0; i < n; i++ {
			shift := 0.0
			if i > 300 && i < 900 {
				shift = 5
			}
			d.Process(sample(r, i%testClasses, shift))
		}
		if d.SamplesSeen() != n {
			return false
		}
		ev := d.DriftEvents()
		for i := 1; i < len(ev); i++ {
			if ev[i] <= ev[i-1] {
				return false
			}
		}
		for _, e := range ev {
			if e < 0 || e >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: TriggerReconstruction from any monitoring state consumes
// exactly NRecon samples before returning to monitoring.
func TestPropReconstructionLength(t *testing.T) {
	f := func(seed uint64, warmRaw uint8) bool {
		d, r, err := buildDetector(seed, 10)
		if err != nil {
			return false
		}
		warm := int(warmRaw % 100)
		for i := 0; i < warm; i++ {
			d.Process(sample(r, i%testClasses, 0))
		}
		d.Process(sample(r, 0, 0))
		d.TriggerReconstruction()
		n := 0
		for d.PhaseNow() == Reconstructing {
			d.Process(sample(r, n%testClasses, 0))
			n++
			if n > d.Config().NRecon+1 {
				return false
			}
		}
		return n == d.Config().NRecon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
