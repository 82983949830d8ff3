package core

import (
	"errors"

	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// Transitioner is the optional capability a stage exposes when its
// numeric precision is a runtime lifecycle rather than a construction
// choice: the stage can demote itself to a cheaper backend under
// pressure and promote back when pressure clears. It follows the same
// capability-interface pattern as Merger — callers discover it with
// Find[Transitioner], and stages that are inherently single-precision
// (the baseline detectors, the Q16.16 port itself) simply do not
// implement it.
//
// The contract is asymmetric by design: Demote derives a
// reduced-precision twin and KEEPS the full-precision state aside as
// the retained origin, so Promote is exact — the origin resumes
// bit-identically, never a widened image of rounded state.
type Transitioner interface {
	// Demote switches the stage to the given lower precision. The
	// full-precision state is retained; processing flows through the
	// reduced-precision twin until Promote. Demoting an already-demoted
	// stage, to a non-lower precision, or mid-reconstruction fails and
	// leaves the stage unchanged.
	Demote(p oselm.Precision) error
	// Promote discards the reduced-precision twin and resumes the
	// retained origin exactly as it was at the demotion instant. It
	// fails if the stage is not demoted.
	Promote() error
	// ActivePrecision returns the precision processing currently runs
	// at: the origin's when not demoted, the twin's while demoted.
	ActivePrecision() oselm.Precision
	// Degraded reports whether the stage is currently demoted.
	Degraded() bool
}

// CloneAt builds a detector bound to m that continues d's stream: the
// calibrated state — configuration, thresholds, centroids, counts,
// window machinery — the host-local guard policy and the lifetime
// diagnostics, bit for bit (all of it float64, so at any model
// precision). The recent centroids and counts are the clone's own. The
// trained centroids, which only a finished reconstruction, an ensemble
// adopt, a restore or a re-Calibrate writes, are shared copy-on-write
// when m computes at d's precision, as a model clone shares β and P:
// clone and source both mark them shared, and whichever writes first
// takes a private copy (ownTrainCor), so CloneAt is a use of d under
// d's one-goroutine contract. A clone at another precision — a
// demotion twin, which its monitor audits beside the retained origin —
// gets its own copy. m must have d's shape, as a model clone or a
// precision conversion of d's model does. CloneAt fails on an
// uncalibrated detector and mid-reconstruction: a clone or a transition
// is only taken from a stable state.
func (d *Detector) CloneAt(m *model.Multi) (*Detector, error) {
	if !d.calibrated {
		return nil, errors.New("core: CloneAt before Calibrate")
	}
	if d.drift {
		return nil, errors.New("core: CloneAt during reconstruction")
	}
	cfg := d.cfg
	cfg.Precision = m.Precision()
	nd, err := New(m, cfg)
	if err != nil {
		return nil, err
	}
	trainCor := d.trainCor
	if m.Precision() == d.model.Precision() {
		d.corShared, nd.corShared = true, true
	} else {
		trainCor = copyCentroids(trainCor)
	}
	nd.setSaved(d.thetaError, d.thetaDrift, d.check, d.win, d.dist, trainCor,
		copyCentroids(d.cor), append([]int(nil), d.num...), append([]int(nil), d.baseNum...))
	// The clone rejects and repairs bit-identically: the guard's
	// counters and the last accepted result (GuardReject replays it).
	nd.rejected, nd.clamped, nd.lastGood = d.rejected, d.clamped, d.lastGood
	// Lifetime diagnostics: the clone continues this stream's life, so
	// sample indices, drift history and health counters carry over.
	nd.samplesSeen = d.samplesSeen
	nd.driftEvents = append([]int(nil), d.driftEvents...)
	nd.reconsDone = d.reconsDone
	nd.divergences = d.divergences
	nd.merges = d.merges
	*nd.scoreHist = *d.scoreHist
	return nd, nil
}
