package core

import (
	"bytes"

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
// calibrated state — thresholds, centroids, counts, window machinery —
// travels through the existing SaveState/LoadState wire path (all of it
// float64, so the copy is bit-exact at any model precision), and the
// host-local knobs plus lifetime diagnostics the wire format
// deliberately omits are carried over explicitly. m's precision decides
// the clone's; d is read, never mutated. CloneAt fails on an
// uncalibrated detector and mid-reconstruction (SaveState's own
// preconditions) — a transition is only taken from a stable state.
func (d *Detector) CloneAt(m *model.Multi) (*Detector, error) {
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		return nil, err
	}
	nd, err := LoadState(&buf, m)
	if err != nil {
		return nil, err
	}
	// Host-local guard policy: LoadState builds a default reject
	// detector, so carry d's policy (with its repair scratch), its
	// counters and the last accepted result (GuardReject replays it on
	// rejection — the clone must reject bit-identically).
	nd.cfg.Guard, nd.cfg.ClampLimit = d.cfg.Guard, d.cfg.ClampLimit
	nd.clampBuf = make([]float64, len(d.clampBuf))
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
