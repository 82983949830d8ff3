// Package nslkdd generates a synthetic surrogate for the NSL-KDD
// intrusion-detection stream the paper evaluates on (§4.1.1).
//
// The real NSL-KDD dataset is an external download; per the reproduction
// ground rules it is replaced by a generator that preserves what the
// evaluated methods actually consume: a 38-feature numeric stream with
// two classes — "normal" traffic and "neptune" (SYN-flood) attacks —
// whose distribution shifts once, at the paper's exact drift point.
//
// Structure of the surrogate:
//
//   - Each class is a Gaussian with its own per-feature means and
//     standard deviations. The attack class differs strongly on a subset
//     of "flood signature" features (in the real data: serror_rate,
//     count, and friends) and weakly elsewhere, giving the ≈97% baseline
//     separability the paper's Figure 4 shows before the drift.
//   - At the drift point both class-conditional distributions shift by a
//     common covariate-shift vector and widen, and the class mix tilts
//     towards attacks — the test-set shift NSL-KDD is known for. The
//     shift magnitude is chosen so a model trained pre-drift degrades to
//     roughly the paper's 83% baseline while a retrained model recovers.
//
// Sizes match the paper exactly: 2,522 initial-training samples and
// 22,701 test samples with the drift at test index 8,333.
package nslkdd

import (
	"edgedrift/internal/rng"
)

// Paper constants (§4.1.1).
const (
	// Features is the number of continuous features.
	Features = 38
	// DefaultTrainN is the initial-training sample count.
	DefaultTrainN = 2522
	// DefaultTestN is the test-stream sample count.
	DefaultTestN = 22701
	// DefaultDriftAt is the 0-based test index of the concept drift
	// (the paper's "8333rd data point").
	DefaultDriftAt = 8332
	// LabelNormal and LabelNeptune are the class indices.
	LabelNormal  = 0
	LabelNeptune = 1
)

// Params controls generation. The zero value is not valid; start from
// DefaultParams.
type Params struct {
	// Seed drives every random draw; same seed, same dataset.
	Seed uint64
	// TrainN, TestN and DriftAt size the streams.
	TrainN, TestN, DriftAt int
	// FloodFeatures is how many features carry the attack signature.
	FloodFeatures int
	// Separation scales the class separation on signature features.
	Separation float64
	// ShiftScale scales the post-drift covariate shift.
	ShiftScale float64
	// NoiseGrowth multiplies feature stds after the drift.
	NoiseGrowth float64
	// AttackFracPre/Post are the neptune class probabilities before and
	// after the drift.
	AttackFracPre, AttackFracPost float64
	// Overlap is the probability that a sample's features are drawn from
	// the other class's distribution (ambiguous traffic), setting the
	// irreducible error floor of any classifier on the stream.
	Overlap float64
	// QuietFeatures is how many features are near-constant (the real
	// NSL-KDD has many rarely-active flags and counters). The post-drift
	// shift displaces them by QuietShift: they carry most of the
	// distribution change that detectors see while barely perturbing the
	// classification boundary.
	QuietFeatures int
	// QuietShift is the post-drift displacement of quiet features.
	QuietShift float64
	// SeparationDecay scales the attack signature after the drift: the
	// new attack variants are stealthier, sitting closer to normal
	// traffic. 1 keeps the pre-drift separation.
	SeparationDecay float64
}

// DefaultParams returns the paper-faithful configuration.
func DefaultParams() Params {
	return Params{
		Seed:            1,
		TrainN:          DefaultTrainN,
		TestN:           DefaultTestN,
		DriftAt:         DefaultDriftAt,
		FloodFeatures:   8,
		Separation:      1.4,
		ShiftScale:      0,
		NoiseGrowth:     1.1,
		AttackFracPre:   0.45,
		AttackFracPost:  0.55,
		Overlap:         0.035,
		QuietFeatures:   10,
		QuietShift:      1.6,
		SeparationDecay: 0.55,
	}
}

// Dataset is a generated surrogate stream.
type Dataset struct {
	// TrainX/TrainY are the initial-training samples and labels.
	TrainX [][]float64
	TrainY []int
	// TestX/TestY are the test stream and its ground-truth labels.
	TestX [][]float64
	TestY []int
	// DriftAt is the 0-based test index where the shift begins.
	DriftAt int
}

// classSpec holds one class's per-feature Gaussian parameters.
type classSpec struct {
	mean []float64
	std  []float64
}

func (c classSpec) sample(r *rng.Rand, shift []float64, noiseMul float64) []float64 {
	x := make([]float64, len(c.mean))
	for j := range x {
		m := c.mean[j]
		if shift != nil {
			m += shift[j]
		}
		x[j] = r.Normal(m, c.std[j]*noiseMul)
	}
	return x
}

// Generate builds the dataset for the given parameters.
func Generate(p Params) *Dataset {
	r := rng.New(p.Seed)
	specR := r.Split()  // feature-template stream
	trainR := r.Split() // training draws
	testR := r.Split()  // test draws
	driftR := r.Split() // drift-vector draws

	normal := classSpec{mean: make([]float64, Features), std: make([]float64, Features)}
	attack := classSpec{mean: make([]float64, Features), std: make([]float64, Features)}
	for j := 0; j < Features; j++ {
		normal.mean[j] = specR.Uniform(0, 2)
		normal.std[j] = specR.Uniform(0.08, 0.22)
		attack.mean[j] = normal.mean[j] + specR.Normal(0, 0.08)
		attack.std[j] = normal.std[j] * specR.Uniform(0.8, 1.2)
	}
	// Flood-signature features: strong, consistent separation. Quiet
	// features: near-constant in both classes. The remaining features
	// stay weakly informative.
	perm := specR.Perm(Features)
	sig := perm[:p.FloodFeatures]
	quiet := perm[p.FloodFeatures : p.FloodFeatures+p.QuietFeatures]
	for _, j := range sig {
		dir := 1.0
		if specR.Bernoulli(0.3) {
			dir = -1
		}
		attack.mean[j] = normal.mean[j] + float64(dir*p.Separation*specR.Uniform(0.7, 1.3))
	}
	for _, j := range quiet {
		normal.std[j] = specR.Uniform(0.005, 0.02)
		attack.mean[j] = normal.mean[j]
		attack.std[j] = normal.std[j]
	}

	// Post-drift covariate shift: concentrated on a random half of the
	// features, same direction for both classes (environment change, not
	// a label flip).
	shift := make([]float64, Features)
	for _, j := range driftR.Perm(Features)[:Features/2] {
		shift[j] = driftR.Normal(0, p.ShiftScale)
	}
	for _, j := range quiet {
		sign := 1.0
		if driftR.Bernoulli(0.5) {
			sign = -1
		}
		shift[j] = sign * p.QuietShift * driftR.Uniform(0.7, 1.3)
	}

	// Post-drift attack profile: stealthier signature.
	attackPost := classSpec{mean: append([]float64(nil), attack.mean...), std: append([]float64(nil), attack.std...)}
	for _, j := range sig {
		// Per-feature jitter: some signature dimensions decay more than
		// others, smoothing the classification flip.
		dec := p.SeparationDecay * driftR.Uniform(0.85, 1.15)
		if dec > 1 {
			dec = 1
		}
		attackPost.mean[j] = normal.mean[j] + float64((attack.mean[j]-normal.mean[j])*dec)
	}

	ds := &Dataset{DriftAt: p.DriftAt}
	for i := 0; i < p.TrainN; i++ {
		label := LabelNormal
		if trainR.Bernoulli(p.AttackFracPre) {
			label = LabelNeptune
		}
		spec := normal
		if (label == LabelNeptune) != trainR.Bernoulli(p.Overlap) {
			spec = attack
		}
		ds.TrainX = append(ds.TrainX, spec.sample(trainR, nil, 1))
		ds.TrainY = append(ds.TrainY, label)
	}
	for i := 0; i < p.TestN; i++ {
		drifted := i >= p.DriftAt
		frac := p.AttackFracPre
		if drifted {
			frac = p.AttackFracPost
		}
		label := LabelNormal
		if testR.Bernoulli(frac) {
			label = LabelNeptune
		}
		spec := normal
		if (label == LabelNeptune) != testR.Bernoulli(p.Overlap) {
			if drifted {
				spec = attackPost
			} else {
				spec = attack
			}
		}
		var sh []float64
		noise := 1.0
		if drifted {
			sh = shift
			noise = p.NoiseGrowth
		}
		ds.TestX = append(ds.TestX, spec.sample(testR, sh, noise))
		ds.TestY = append(ds.TestY, label)
	}
	return ds
}
