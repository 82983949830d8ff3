package core

// Merger is the optional capability a stage exposes when its trained
// model state is a first-class, mergeable value — the seam the fleet's
// cooperative policies (warm recovery, anti-entropy) are built on.
// Callers discover it with Find[Merger], and a stage that cannot merge
// (the Q16.16 detect-only port, the batch baselines) simply does not
// implement it.
type Merger interface {
	// MergeFingerprint returns the stage's merge-compatibility
	// fingerprint. Two stages can exchange merge state iff their
	// fingerprints match; the fleet indexes it so incompatible peers are
	// rejected before any state is shipped.
	MergeFingerprint() uint64
	// ExportMergeState serialises the stage's trained model state into a
	// self-describing blob a compatible peer's MergeSeed can consume,
	// locally or across shards.
	ExportMergeState() ([]byte, error)
	// MergeSeed replaces the stage's model state with the closed-form
	// combination of the given peer state blobs. Incompatible state is
	// rejected (wrapping oselm.ErrMergeIncompatible) without touching the
	// stage. It does not alter detector phase or centroid state — policy
	// layers decide when seeding is safe (e.g. at the start of a
	// reconstruction).
	MergeSeed(states [][]byte) error
}

// MergeFingerprint returns the fingerprint of the detector's model.
func (d *Detector) MergeFingerprint() uint64 { return d.model.Fingerprint() }

// ExportMergeState serialises the detector's trained model state.
func (d *Detector) ExportMergeState() ([]byte, error) { return d.model.ExportMergeState() }

// MergeSeed replaces the detector's model state with the closed-form
// combination of the peer blobs (see model.Multi.MergeStates). The
// detector's own drift state machine is untouched: seeding mid-
// reconstruction warm-starts the rebuild the same way ResetModelOnDrift
// cold-starts it.
func (d *Detector) MergeSeed(states [][]byte) error {
	if err := d.model.MergeStates(states); err != nil {
		return err
	}
	d.merges++
	return nil
}

var _ Merger = (*Detector)(nil)
