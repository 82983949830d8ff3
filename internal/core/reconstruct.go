package core

import (
	"math"

	"edgedrift/internal/kmeans"
	"edgedrift/internal/mat"
	"edgedrift/internal/rng"
)

// reconstructStep is Algorithm 2: one sample's worth of model
// reconstruction. It returns the Result for the sample and flips the
// detector back to monitoring when N samples have been consumed.
func (d *Detector) reconstructStep(x []float64) Result {
	d.count++
	res := Result{Phase: Reconstructing}

	if d.count < d.cfg.NSearch {
		d.stage(StageCoordInit, func() { d.initCoord(x) })
	}
	if d.count < d.cfg.NUpdate {
		d.stage(StageCoordUpdate, func() { d.updateCoord(x) })
	}

	// Exclusive retraining ranges; see the package comment for why the
	// pseudocode's overlapping guards are read as alternatives.
	if d.count < d.cfg.NRecon/2 {
		d.stage(StageRetrainNoPred, func() {
			label := d.nearestCoord(x)
			d.model.Train(x, label)
			res.Label = label
		})
	} else {
		var label int
		var score float64
		d.stage(StageRetrainWithPred, func() {
			label, score = d.model.PredictTrain(x)
		})
		if math.IsNaN(score) || math.IsInf(score, 0) {
			// The rebuilding model itself diverged; training on its own
			// prediction or folding the score into the threshold
			// re-estimators would bake the divergence into the new concept.
			d.divergences++
		} else {
			// Threshold re-estimation uses only this phase: the coordinates
			// have settled by NRecon/2, so these distances and scores
			// characterise the new concept.
			d.reconDists.Observe(d.distance(x, d.cor[label]))
			d.reconScores.Observe(score)
			res.Label = label
			res.Score = score
		}
	}

	if d.count >= d.cfg.NRecon {
		d.finishReconstruction()
		res.Phase = Monitoring
	}
	return res
}

// nearestCoord returns the label whose coordinate is closest to x under
// the configured metric (Algorithm 2 line 8). With one class the label
// is 0 whatever the distance, so the distance is charged to the
// operation counter, as the algorithm computes it, but not computed.
func (d *Detector) nearestCoord(x []float64) int {
	if d.classes == 1 {
		d.chargeDistance(len(x))
		return 0
	}
	best, bd := 0, d.distance(x, d.cor[0])
	for c := 1; c < d.classes; c++ {
		if dist := d.distance(x, d.cor[c]); dist < bd {
			best, bd = c, dist
		}
	}
	d.ops.AddCmp(d.classes - 1)
	return best
}

// initCoord is Algorithm 3: tentatively substitute x for each label
// coordinate and keep the substitution that maximises the total pairwise
// distance between coordinates, spreading them out k-means++-style.
func (d *Detector) initCoord(x []float64) {
	min := d.pairwiseCoordDist()
	label := -1
	for c := 0; c < d.classes; c++ {
		tmp := d.cor[c]
		d.cor[c] = x
		dist := d.pairwiseCoordDist()
		d.cor[c] = tmp
		d.ops.AddCmp(1)
		if min < dist {
			label = c
			min = dist
		}
	}
	if label != -1 {
		copy(d.cor[label], x)
		// A freshly seeded coordinate represents one observation.
		d.num[label] = 1
	}
}

// pairwiseCoordDist is the Σ_{j<k} distance(cor[j], cor[k]) objective of
// Algorithm 3.
func (d *Detector) pairwiseCoordDist() float64 {
	var s float64
	for j := 0; j < d.classes; j++ {
		for k := j + 1; k < d.classes; k++ {
			s += d.distance(d.cor[j], d.cor[k])
		}
	}
	return s
}

// updateCoord is Algorithm 4: sequential k-means on the label
// coordinates, plus the standard empty-cluster repair adapted to the
// sequential setting: the paper notes Init_Coord "may select outliers"
// and relies on Update_Coord to refine them, but a coordinate seeded on
// an extreme outlier never wins a sample under nearest-assignment and
// would stay stuck, collapsing every label onto one coordinate. When a
// coordinate has gone starveLimit updates without winning while holding
// at most its seed observation, it is re-seeded on the current sample
// (a member of the data bulk), after which nearest-assignment can refine
// it normally.
func (d *Detector) updateCoord(x []float64) {
	for c := range d.cor {
		d.starve[c]++
	}
	label := d.nearestCoord(x)
	limit := d.starveLimit()
	repaired := false
	for c := range d.cor {
		if c != label && d.num[c] <= 2 && d.starve[c] >= limit {
			copy(d.cor[c], x)
			d.num[c] = 1
			d.starve[c] = 0
			repaired = true
			break
		}
	}
	if repaired {
		return
	}
	d.starve[label] = 0
	d.num[label] = mat.RunningMeanUpdate(d.cor[label], d.num[label], x)
	d.ops.AddMulAdd(d.dims)
	d.ops.AddDiv(d.dims)
}

// starveLimit is how many consecutive lost assignments a nearly-empty
// coordinate tolerates before being re-seeded.
func (d *Detector) starveLimit() int {
	l := d.cfg.NUpdate / 10
	if l < 20 {
		l = 20
	}
	return l
}

// finishReconstruction adopts the refined coordinates as the new trained
// centroids, re-derives θ_drift from the distances observed during
// retraining (Eq. 1 over the reconstruction samples), and re-arms the
// detector.
func (d *Detector) finishReconstruction() {
	d.ownTrainCor()
	for c := range d.trainCor {
		copy(d.trainCor[c], d.cor[c])
	}
	d.baseNum = append(d.baseNum[:0], d.num...)
	if d.cfg.DriftThreshold <= 0 && d.reconDists.N() > 0 {
		d.thetaDrift = d.reconDists.Mean() + float64(d.cfg.ZDrift*d.reconDists.Std())
	}
	// Re-derive θ_error from the rebuilt model's own scores (collected in
	// the predicted-label retraining phase) so check windows re-arm
	// against the new concept, unless the caller pinned the threshold.
	if d.cfg.ErrorThreshold <= 0 && d.reconScores.N() > 0 {
		d.thetaError = d.reconScores.Mean() + float64(d.cfg.ZError*d.reconScores.Std())
	}
	d.drift = false
	d.check = false
	d.win = 0
	d.dist = 0
	d.count = 0
	d.reconsDone++
	d.reconDists.Reset()
	d.reconScores.Reset()
}

// LabelsByKMeans produces the unsupervised initial labelling the paper
// assumes for the training set (§3.2): k-means with C clusters. The
// returned labels index the clustering's centroids, which callers should
// use consistently for model training and Calibrate.
func LabelsByKMeans(xs [][]float64, classes int, r *rng.Rand) []int {
	res := kmeans.Run(xs, kmeans.Config{K: classes}, r)
	return res.Assign
}
