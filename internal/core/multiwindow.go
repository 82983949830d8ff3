package core

import (
	"errors"
	"fmt"
	"math"

	"edgedrift/internal/health"
	"edgedrift/internal/model"
)

// MultiWindow runs several detector window sizes over one shared model,
// the extension the paper names as future work (§5.2, "using multiple
// detection models with different window sizes ... to address more
// complicated drift behaviors"). Each member keeps its own window and
// centroid state. A member that crosses its threshold raises an *alarm*
// that stays live for Horizon samples; when at least Quorum alarms are
// live simultaneously, the ensemble declares a drift and runs a single
// shared reconstruction. The horizon exists because detections are
// quantized to window closes — a 10-sample and a 150-sample window never
// fire on the same sample, but their alarms overlap when a real drift is
// in progress.
//
// Because the heavy work per sample — the model's label prediction — is
// shared across members, the ensemble's marginal cost is only the extra
// centroid bookkeeping (O(C·D) per member), preserving the method's
// sequential-memory property.
type MultiWindow struct {
	model   *model.Multi
	members []*Detector
	// Quorum is how many live alarms trigger the ensemble.
	Quorum int
	// Horizon is how long (in samples) a member's alarm stays live.
	Horizon int

	lastFire    []int
	driftEvents []int
	samples     int
	recon       *Detector // member driving an in-flight reconstruction
	wantReset   bool      // reset the shared model when quorum is reached
}

// NewMultiWindow builds an ensemble over the given window sizes. Member
// configurations are the base Config with the window substituted; the
// default Horizon is the largest window.
func NewMultiWindow(m *model.Multi, windows []int, quorum int, base Config) (*MultiWindow, error) {
	if len(windows) == 0 {
		return nil, errors.New("core: MultiWindow needs at least one window size")
	}
	if quorum <= 0 || quorum > len(windows) {
		return nil, fmt.Errorf("core: quorum %d out of [1,%d]", quorum, len(windows))
	}
	mw := &MultiWindow{model: m, Quorum: quorum, wantReset: base.ResetModelOnDrift}
	maxW := 0
	for _, w := range windows {
		if w > maxW {
			maxW = w
		}
		cfg := base
		cfg.Window = w
		if cfg.ZDrift == 0 {
			cfg.ZDrift = 1
		}
		if cfg.ZError == 0 {
			cfg.ZError = 1
		}
		// Members must not reset the shared model unilaterally — only the
		// ensemble does, once quorum is reached.
		cfg.ResetModelOnDrift = false
		det, err := New(m, cfg)
		if err != nil {
			return nil, err
		}
		mw.members = append(mw.members, det)
	}
	mw.Horizon = maxW
	mw.lastFire = make([]int, len(mw.members))
	for i := range mw.lastFire {
		mw.lastFire[i] = math.MinInt / 2
	}
	return mw, nil
}

// Calibrate calibrates every member on the shared training set.
func (mw *MultiWindow) Calibrate(xs [][]float64, labels []int) error {
	for i, d := range mw.members {
		if err := d.Calibrate(xs, labels); err != nil {
			return fmt.Errorf("core: member %d: %w", i, err)
		}
	}
	return nil
}

// Members returns the underlying detectors (views, not copies).
func (mw *MultiWindow) Members() []*Detector { return mw.members }

// DriftEvents returns the 0-based sample indices where the ensemble
// declared drift.
func (mw *MultiWindow) DriftEvents() []int {
	out := make([]int, len(mw.driftEvents))
	copy(out, mw.driftEvents)
	return out
}

// Process advances every member on x. While a reconstruction is in
// flight it is driven through the member whose detection completed the
// quorum; other members are paused (the model is shared, so one
// reconstruction is the whole ensemble's reconstruction).
func (mw *MultiWindow) Process(x []float64) Result {
	mw.samples++
	if mw.recon != nil {
		res := mw.recon.Process(x)
		if res.Phase != Reconstructing {
			// Reconstruction finished: propagate the refreshed state to
			// the other members so they monitor the new concept.
			for _, d := range mw.members {
				if d != mw.recon {
					d.adoptStateFrom(mw.recon)
				}
			}
			mw.recon = nil
		}
		return res
	}

	var agg Result
	var firedNow *Detector
	flagged := 0
	for i, d := range mw.members {
		res := d.Process(x)
		if i == 0 {
			agg = res
		}
		if res.DriftDetected {
			mw.lastFire[i] = mw.samples
			firedNow = d
		}
		if mw.samples-mw.lastFire[i] <= mw.Horizon {
			flagged++
		}
	}

	if flagged >= mw.Quorum && firedNow != nil {
		mw.driftEvents = append(mw.driftEvents, mw.samples-1)
		agg.DriftDetected = true
		agg.Phase = Reconstructing
		if mw.wantReset {
			mw.model.Reset()
		}
		// The member that completed the quorum drives the shared rebuild;
		// everyone else's in-flight reconstruction is cancelled and all
		// alarms clear.
		mw.recon = firedNow
		for _, d := range mw.members {
			if d != firedNow && d.drift {
				d.drift = false
				d.count = 0
			}
		}
		for i := range mw.lastFire {
			mw.lastFire[i] = math.MinInt / 2
		}
		return agg
	}

	// No quorum: individual detections stay as alarms only. Cancel the
	// member-local reconstructions so monitoring continues (the shared
	// model was not reset — members run with ResetModelOnDrift off), and
	// scrub the member-level detection flag from the aggregate result —
	// the ensemble did not declare a drift.
	for _, d := range mw.members {
		if d.drift {
			d.drift = false
			d.count = 0
		}
	}
	agg.DriftDetected = false
	if agg.Phase == Reconstructing {
		agg.Phase = Monitoring
	}
	return agg
}

// MemoryBytes audits the ensemble's retained state: the shared model
// counted once, plus each member's detector-only overhead (centroids,
// counts, accumulators).
func (mw *MultiWindow) MemoryBytes() int {
	shared := mw.model.MemoryBytes()
	total := shared
	for _, d := range mw.members {
		total += d.MemoryBytes() - shared
	}
	return total
}

// Health reports the ensemble's health. Every member processes every
// sample against the same shared model, so member 0's snapshot is fully
// representative of ingestion and model state; only the phase is
// ensemble-level (reconstructing while the quorum-elected member drives
// the shared rebuild).
func (mw *MultiWindow) Health() health.Snapshot {
	s := mw.members[0].Health()
	if mw.recon != nil {
		s.Phase = Reconstructing.String()
	}
	return s
}

var _ Streaming = (*MultiWindow)(nil)

// adoptStateFrom copies the post-reconstruction centroid state and
// thresholds from src, re-arming the member against the new concept.
func (d *Detector) adoptStateFrom(src *Detector) {
	d.ownTrainCor()
	for c := range d.trainCor {
		copy(d.trainCor[c], src.trainCor[c])
		copy(d.cor[c], src.cor[c])
	}
	copy(d.num, src.num)
	d.baseNum = append(d.baseNum[:0], src.baseNum...)
	d.thetaDrift = src.thetaDrift
	d.thetaError = src.thetaError
	d.drift, d.check, d.win, d.dist, d.count = false, false, 0, 0, 0
}
