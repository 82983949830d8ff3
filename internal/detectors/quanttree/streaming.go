package quanttree

import (
	"edgedrift/internal/core"
	"edgedrift/internal/health"
)

// Process adapts the tree to the core.Streaming stage contract, so the
// evaluation harness and the fleet layer can schedule a QuantTree
// exactly like the proposed detector. Between batch closes the result is
// quiet (Phase Monitoring); the sample that completes a batch carries
// the test outcome: Phase Checking, Score the histogram statistic, and
// DriftDetected when it crossed the calibrated threshold. Label is -1 —
// a batch change detector predicts no class.
func (t *Tree) Process(x []float64) core.Result {
	checked, drift := t.Observe(x)
	res := core.Result{Label: -1, Phase: core.Monitoring, DriftDetected: drift}
	if checked {
		res.Phase = core.Checking
		res.Score = t.lastStat
	}
	return res
}

// Health reports the tree's structured health snapshot. A QuantTree has
// no recursive model state that can diverge, so the snapshot is mostly
// counters: every observed sample is accepted (the tree has no
// ingestion guard).
func (t *Tree) Health() health.Snapshot {
	return health.Snapshot{
		SamplesSeen: t.seen,
		PFinite:     true,
		Phase:       core.Monitoring.String(),
	}
}

var _ core.Streaming = (*Tree)(nil)
