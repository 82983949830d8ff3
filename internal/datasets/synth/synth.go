// Package synth generates synthetic labelled streams with controlled
// concept drift.
//
// It provides the four canonical drift shapes of the paper's Figure 1 —
// sudden, gradual, incremental and reoccurring — as composition rules
// over a pair of data sources (the "old" and "new" concepts), plus the
// Gaussian sources the other dataset surrogates build on.
package synth

import (
	"fmt"

	"edgedrift/internal/rng"
)

// Source produces labelled samples of one concept.
type Source interface {
	// Sample draws one sample and its class label.
	Sample(r *rng.Rand) (x []float64, label int)
	// Dims returns the feature dimension.
	Dims() int
}

// Interpolatable sources can morph towards another concept; used by the
// incremental drift shape.
type Interpolatable interface {
	Source
	// Interp returns a source representing the concept at fraction t
	// (0 = this source, 1 = other).
	Interp(other Source, t float64) Source
}

// Gaussian is a mixture-of-Gaussians source: one spherical component per
// class, sampled with the given class weights (uniform when nil).
type Gaussian struct {
	// Means[c] is the centre of class c.
	Means [][]float64
	// Std is the per-dimension standard deviation.
	Std float64
	// Weights are optional class probabilities (normalised internally).
	Weights []float64
}

// NewGaussian builds a source with uniform class weights.
func NewGaussian(means [][]float64, std float64) *Gaussian {
	if len(means) == 0 {
		panic("synth: Gaussian needs at least one class mean")
	}
	return &Gaussian{Means: means, Std: std}
}

// Dims implements Source.
func (g *Gaussian) Dims() int { return len(g.Means[0]) }

// Sample implements Source.
func (g *Gaussian) Sample(r *rng.Rand) ([]float64, int) {
	label := g.pickClass(r)
	mean := g.Means[label]
	x := make([]float64, len(mean))
	for i, m := range mean {
		x[i] = r.Normal(m, g.Std)
	}
	return x, label
}

func (g *Gaussian) pickClass(r *rng.Rand) int {
	if len(g.Weights) == 0 {
		return r.Intn(len(g.Means))
	}
	var total float64
	for _, w := range g.Weights {
		total += w
	}
	target := r.Float64() * total
	var acc float64
	for i, w := range g.Weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(g.Weights) - 1
}

// Interp implements Interpolatable for Gaussian-to-Gaussian morphing:
// class means move linearly, the std blends linearly.
func (g *Gaussian) Interp(other Source, t float64) Source {
	o, ok := other.(*Gaussian)
	if !ok || len(o.Means) != len(g.Means) {
		panic("synth: Gaussian.Interp needs a Gaussian with matching classes")
	}
	means := make([][]float64, len(g.Means))
	for c := range means {
		m := make([]float64, len(g.Means[c]))
		for j := range m {
			m[j] = float64((1-t)*g.Means[c][j]) + float64(t*o.Means[c][j])
		}
		means[c] = m
	}
	return &Gaussian{Means: means, Std: float64((1-t)*g.Std) + float64(t*o.Std), Weights: g.Weights}
}

// Kind is a drift shape from Figure 1.
type Kind int

const (
	// Sudden switches concepts instantaneously at Start.
	Sudden Kind = iota
	// Gradual mixes old and new with a linear probability ramp over
	// [Start, End).
	Gradual
	// Incremental morphs the distribution itself over [Start, End).
	Incremental
	// Reoccurring switches to the new concept on [Start, End) and back
	// to the old one after.
	Reoccurring
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Sudden:
		return "sudden"
	case Gradual:
		return "gradual"
	case Incremental:
		return "incremental"
	case Reoccurring:
		return "reoccurring"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one drift episode within a stream.
type Spec struct {
	Kind Kind
	// Start is the first sample index affected by the drift.
	Start int
	// End is the first index after the transition region. Sudden drifts
	// ignore it; for Reoccurring it is where the old concept returns.
	End int
}

// Validate checks the spec against a stream length.
func (s Spec) Validate(n int) error {
	if s.Start < 0 || s.Start >= n {
		return fmt.Errorf("synth: drift start %d outside stream of %d", s.Start, n)
	}
	if s.Kind != Sudden && (s.End <= s.Start || s.End > n) {
		return fmt.Errorf("synth: drift window [%d,%d) invalid for %v over %d samples", s.Start, s.End, s.Kind, n)
	}
	return nil
}

// Stream is a generated labelled stream with drift ground truth.
type Stream struct {
	// X[i] is sample i; Labels[i] its class under the generating source.
	X      [][]float64
	Labels []int
	// FromNew[i] reports whether sample i was drawn from the new
	// concept (for Incremental it is true once morphing begins).
	FromNew []bool
	// Spec is the drift episode that produced the stream.
	Spec Spec
}

// Generate composes a stream of n samples from the old concept `pre` and
// new concept `post` under the drift spec.
func Generate(pre, post Source, n int, spec Spec, r *rng.Rand) (*Stream, error) {
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	if pre.Dims() != post.Dims() {
		return nil, fmt.Errorf("synth: dimension mismatch %d vs %d", pre.Dims(), post.Dims())
	}
	st := &Stream{
		X:       make([][]float64, n),
		Labels:  make([]int, n),
		FromNew: make([]bool, n),
		Spec:    spec,
	}
	for i := 0; i < n; i++ {
		src, fromNew := spec.sourceAt(i, pre, post, r)
		x, label := src.Sample(r)
		st.X[i] = x
		st.Labels[i] = label
		st.FromNew[i] = fromNew
	}
	return st, nil
}

// sourceAt resolves which concept generates sample i.
func (s Spec) sourceAt(i int, pre, post Source, r *rng.Rand) (Source, bool) {
	switch s.Kind {
	case Sudden:
		if i >= s.Start {
			return post, true
		}
		return pre, false
	case Gradual:
		switch {
		case i < s.Start:
			return pre, false
		case i >= s.End:
			return post, true
		default:
			t := float64(i-s.Start) / float64(s.End-s.Start)
			if r.Bernoulli(t) {
				return post, true
			}
			return pre, false
		}
	case Incremental:
		switch {
		case i < s.Start:
			return pre, false
		case i >= s.End:
			return post, true
		default:
			ip, ok := pre.(Interpolatable)
			if !ok {
				panic("synth: incremental drift needs an Interpolatable old concept")
			}
			t := float64(i-s.Start) / float64(s.End-s.Start)
			return ip.Interp(post, t), true
		}
	case Reoccurring:
		if i >= s.Start && i < s.End {
			return post, true
		}
		return pre, false
	default:
		panic(fmt.Sprintf("synth: unknown drift kind %d", int(s.Kind)))
	}
}

// TrainingSet draws n labelled samples from a single (stationary)
// concept.
func TrainingSet(src Source, n int, r *rng.Rand) ([][]float64, []int) {
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		xs[i], labels[i] = src.Sample(r)
	}
	return xs, labels
}

// ShiftedGaussian returns a copy of g with every class mean shifted by
// delta per dimension — the simplest covariate-shift "new concept".
func ShiftedGaussian(g *Gaussian, delta float64) *Gaussian {
	means := make([][]float64, len(g.Means))
	for c, m := range g.Means {
		nm := make([]float64, len(m))
		for j, v := range m {
			nm[j] = v + delta
		}
		means[c] = nm
	}
	return &Gaussian{Means: means, Std: g.Std, Weights: g.Weights}
}

// SEA is the classic SEA-concepts stream (Street & Kim, KDD 2001): three
// uniform attributes in [0, 10); the label is 1 when x₀+x₁ ≤ Theta. A
// concept drift changes Theta — the labelling function — while the input
// distribution P(x) stays exactly uniform. This is *real* drift with no
// *virtual* drift, the case that separates error-rate detectors (which
// see it) from distribution detectors (which cannot, by construction).
type SEA struct {
	// Theta is the labelling threshold (classic values: 8, 9, 7, 9.5).
	Theta float64
	// Noise is the label-flip probability (0 for a clean stream).
	Noise float64
}

// Dims implements Source.
func (s *SEA) Dims() int { return 3 }

// Sample implements Source.
func (s *SEA) Sample(r *rng.Rand) ([]float64, int) {
	x := []float64{r.Uniform(0, 10), r.Uniform(0, 10), r.Uniform(0, 10)}
	label := 0
	if x[0]+x[1] <= s.Theta {
		label = 1
	}
	if s.Noise > 0 && r.Bernoulli(s.Noise) {
		label = 1 - label
	}
	return x, label
}
