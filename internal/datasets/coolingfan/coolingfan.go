// Package coolingfan generates a synthetic surrogate for the cooling-fan
// vibration dataset the paper evaluates on (§4.1.2).
//
// The original dataset holds accelerometer frequency spectra (1–511 Hz,
// so 511 features) of normal and damaged fans in silent and noisy
// environments. The surrogate synthesises physically plausible spectra:
//
//   - a normal fan is a harmonic comb at the rotation frequency with
//     1/k^γ-decaying amplitudes plus a blade-pass peak and a noise floor;
//   - "holes in a blade" damage unbalances the rotor, boosting the 1×
//     rotation peak and adding a half-order sub-harmonic — the classic
//     imbalance signature;
//   - a "chipped blade" modulates the blade-pass frequency, adding
//     sidebands around it and boosting even harmonics;
//   - the noisy environment raises the broadband floor and injects a
//     second comb from a nearby ventilation fan.
//
// The three test streams are composed exactly as in §4.1.2: sudden drift
// at sample 120 (holes), gradual drift mixing normal and chipped over
// samples 120–600, and a reoccurring drift where the chipped signature
// appears only on samples 120–170. Each stream is 700 samples, the count
// used by the paper's Table 5 timing run.
package coolingfan

import (
	"fmt"
	"math"

	"edgedrift/internal/rng"
)

// Paper constants (§4.1.2).
const (
	// Features is the spectrum length (1–511 Hz).
	Features = 511
	// StreamLen is the test-stream length used throughout §5.
	StreamLen = 700
	// DriftAt is the 0-based index where every test stream's drift
	// begins ("the 120th data point").
	DriftAt = 120
	// GradualEnd is where the gradual mix completes.
	GradualEnd = 600
	// ReoccurEnd is where the old concept returns in the reoccurring
	// stream ("the 170th data point").
	ReoccurEnd = 170
)

// FanKind selects the fan condition.
type FanKind int

const (
	// Normal is an undamaged fan.
	Normal FanKind = iota
	// Holes is a fan with holes drilled in one blade (mass imbalance).
	Holes
	// Chipped is a fan with a chipped blade edge.
	Chipped
)

// String implements fmt.Stringer.
func (k FanKind) String() string {
	switch k {
	case Normal:
		return "normal"
	case Holes:
		return "holes"
	case Chipped:
		return "chipped"
	default:
		return fmt.Sprintf("FanKind(%d)", int(k))
	}
}

// Env selects the measurement environment.
type Env int

const (
	// Silent is the quiet laboratory environment.
	Silent Env = iota
	// Noisy is the environment near a ventilation fan.
	Noisy
)

// String implements fmt.Stringer.
func (e Env) String() string {
	if e == Noisy {
		return "noisy"
	}
	return "silent"
}

// Params controls spectrum synthesis.
type Params struct {
	// Seed drives all draws.
	Seed uint64
	// Rotation is the fan's rotation frequency in Hz (bin units).
	Rotation float64
	// Blades is the blade count (sets the blade-pass frequency).
	Blades int
	// BaseAmp is the fundamental peak amplitude.
	BaseAmp float64
	// Decay is the harmonic amplitude decay exponent γ.
	Decay float64
	// Floor is the silent-environment noise-floor standard deviation.
	Floor float64
	// Jitter is the multiplicative amplitude jitter per sample.
	Jitter float64
}

// DefaultParams returns a plausible 2,200-rpm seven-blade fan.
func DefaultParams() Params {
	return Params{
		Seed:     1,
		Rotation: 37,
		Blades:   7,
		BaseAmp:  1.0,
		Decay:    1.15,
		Floor:    0.008,
		Jitter:   0.04,
	}
}

// Generator synthesises spectra. Not safe for concurrent use.
type Generator struct {
	p Params
	r *rng.Rand
}

// NewGenerator returns a generator over its own random stream.
func NewGenerator(p Params) *Generator {
	return &Generator{p: p, r: rng.New(p.Seed)}
}

// addPeak deposits a peak of the given amplitude at frequency f,
// spreading energy over ±2 bins with a Gaussian kernel (spectral
// leakage).
func addPeak(spec []float64, f, amp float64) {
	centre := int(math.Round(f))
	for b := centre - 2; b <= centre+2; b++ {
		if b < 1 || b > len(spec) {
			continue
		}
		d := float64(b) - f
		spec[b-1] += float64(amp * math.Exp(-d*d/0.8))
	}
}

// Spectrum draws one 511-bin magnitude spectrum for the given condition
// and environment.
func (g *Generator) Spectrum(kind FanKind, env Env) []float64 {
	p := g.p
	spec := make([]float64, Features)

	jit := func(a float64) float64 { return a * (1 + g.r.Normal(0, p.Jitter)) }

	// Rotation harmonics.
	oneX := p.BaseAmp
	if kind == Holes {
		// Mass imbalance: the 1× peak dominates.
		oneX *= 8.0
	}
	for k := 1; ; k++ {
		f := float64(k) * p.Rotation
		if f > Features {
			break
		}
		amp := p.BaseAmp / math.Pow(float64(k), p.Decay)
		if k == 1 {
			amp = oneX
		}
		if kind == Chipped && k%2 == 0 {
			// Chipped blade boosts even harmonics.
			amp *= 4.0
		}
		addPeak(spec, f, jit(amp))
	}

	// Half-order sub-harmonic from looseness that accompanies the
	// drilled-hole imbalance.
	if kind == Holes {
		addPeak(spec, p.Rotation/2, jit(1.6*p.BaseAmp))
	}

	// Blade-pass frequency and chipped-blade sidebands.
	bpf := float64(float64(p.Blades) * p.Rotation)
	if bpf <= Features {
		addPeak(spec, bpf, jit(0.8*p.BaseAmp))
		if kind == Chipped {
			addPeak(spec, bpf-p.Rotation, jit(3.0*p.BaseAmp))
			addPeak(spec, bpf+p.Rotation, jit(3.0*p.BaseAmp))
		}
	}

	// Environment.
	floor := p.Floor
	if env == Noisy {
		floor *= 4
		// Ventilation-fan comb at an unrelated fundamental.
		for k := 1; k <= 6; k++ {
			f := 23.0 * float64(k)
			if f > Features {
				break
			}
			addPeak(spec, f, jit(0.35*p.BaseAmp/float64(k)))
		}
	}
	for b := range spec {
		spec[b] += math.Abs(g.r.Normal(0, floor))
	}
	return spec
}

// TrainingSet draws n normal-fan spectra in the silent environment — the
// paper's training condition. All labels are 0 (single normal class).
func (g *Generator) TrainingSet(n int) ([][]float64, []int) {
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		xs[i] = g.Spectrum(Normal, Silent)
	}
	return xs, labels
}

// Stream is a composed test stream with drift ground truth.
type Stream struct {
	// X[i] is spectrum i.
	X [][]float64
	// FromNew[i] reports whether sample i came from the damaged fan.
	FromNew []bool
	// DriftAt is the 0-based index where the drift begins.
	DriftAt int
	// Name describes the stream ("sudden", "gradual", "reoccurring").
	Name string
}

// TestSudden composes test set 1: normal until index 120, holes-damaged
// after (§4.1.2 item 1).
func (g *Generator) TestSudden() *Stream {
	st := &Stream{DriftAt: DriftAt, Name: "sudden"}
	for i := 0; i < StreamLen; i++ {
		kind := Normal
		if i >= DriftAt {
			kind = Holes
		}
		st.X = append(st.X, g.Spectrum(kind, Silent))
		st.FromNew = append(st.FromNew, kind != Normal)
	}
	return st
}

// TestGradual composes test set 2: normal until 120, a linear
// normal/chipped mixture on [120, 600), chipped after (§4.1.2 item 2).
func (g *Generator) TestGradual() *Stream {
	st := &Stream{DriftAt: DriftAt, Name: "gradual"}
	for i := 0; i < StreamLen; i++ {
		kind := Normal
		switch {
		case i >= GradualEnd:
			kind = Chipped
		case i >= DriftAt:
			t := float64(i-DriftAt) / float64(GradualEnd-DriftAt)
			if g.r.Bernoulli(t) {
				kind = Chipped
			}
		}
		st.X = append(st.X, g.Spectrum(kind, Silent))
		st.FromNew = append(st.FromNew, kind != Normal)
	}
	return st
}

// TestReoccurring composes test set 3: normal until 120, chipped on
// [120, 170), normal again after (§4.1.2 item 3).
func (g *Generator) TestReoccurring() *Stream {
	st := &Stream{DriftAt: DriftAt, Name: "reoccurring"}
	for i := 0; i < StreamLen; i++ {
		kind := Normal
		if i >= DriftAt && i < ReoccurEnd {
			kind = Chipped
		}
		st.X = append(st.X, g.Spectrum(kind, Silent))
		st.FromNew = append(st.FromNew, kind != Normal)
	}
	return st
}
