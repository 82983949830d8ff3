// Package fixed implements Q16.16 fixed-point arithmetic and a
// fixed-point port of the inference/detection path, modelling how the
// paper's method actually deploys on an FPU-less Cortex-M0+.
//
// The Raspberry Pi Pico has no floating-point hardware: every float
// operation is a multi-hundred-cycle software routine (the cost the
// Table 6 reproduction models). Production MCU ports therefore quantise:
// weights become 32-bit fixed-point words and the hot loops become
// integer multiply-accumulates, roughly two orders of magnitude cheaper.
// This package provides:
//
//   - the Q16.16 scalar type Q and float conversion (the arithmetic
//     kernels live in internal/mat's Q16 layer, shared with the float
//     backends' kernel layer — this package instantiates them at Q);
//   - Autoencoder, an inference-only quantisation of a trained
//     oselm.Autoencoder, with saturation accounting;
//   - Monitor, the on-device half of a split deployment: quantised label
//     prediction plus the sequential centroid drift check of Algorithm 1.
//     On detection it raises a flag instead of reconstructing — the
//     realistic division of labour where the MCU watches and a host
//     retrains (full on-device reconstruction needs the float path).
//
// Quantisation error is bounded by the Q16.16 resolution (2⁻¹⁶ ≈ 1.5e-5
// per operand); the tests verify scores and drift decisions track the
// float implementation on realistic data.
package fixed

import (
	"math"

	"edgedrift/internal/mat"
)

// Q is a Q16.16 fixed-point number: 16 integer bits (signed) and 16
// fractional bits in an int32. It satisfies mat.FixedElement, so the
// shared integer kernels instantiate at it directly.
type Q int32

// Shift is the fractional bit count.
const Shift = mat.Q16Shift

// One is the Q representation of 1.0.
const One = Q(mat.Q16One)

// MaxQ and MinQ are the representable range (≈ ±32768).
const (
	MaxQ Q = math.MaxInt32
	MinQ Q = math.MinInt32
)

// FromFloat converts a float64 to Q with silent saturation.
func FromFloat(f float64) Q {
	q, _ := FromFloatChecked(f)
	return q
}

// FromFloatChecked converts a float64 to Q, additionally reporting
// whether the value was clipped to the representable range (or was NaN,
// mapped to 0) — the silent failure mode of quantising a model whose
// weights outgrew ±32768. Quantisation entry points count these so a
// bad quantisation is visible in health reporting instead of just
// scoring garbage.
func FromFloatChecked(f float64) (Q, bool) {
	v := f * float64(One)
	switch {
	case v >= float64(MaxQ):
		return MaxQ, true
	case v <= float64(MinQ):
		return MinQ, true
	case math.IsNaN(v):
		return 0, true
	}
	return Q(math.Round(v)), false
}

// Float converts q back to float64.
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Mul multiplies two Q values with a 64-bit intermediate (no overflow of
// the product itself; the result saturates).
func Mul(a, b Q) Q { return mat.MulQ16(a, b) }

// Div divides a by b (b must be non-zero) with saturation.
func Div(a, b Q) Q {
	if b == 0 {
		panic("fixed: division by zero")
	}
	p := (int64(a) << Shift) / int64(b)
	return satur(p)
}

// Add returns a+b with saturation.
func Add(a, b Q) Q { return mat.AddQ16(a, b) }

// Sub returns a−b with saturation.
func Sub(a, b Q) Q { return mat.SubQ16(a, b) }

// Abs returns |q| (saturating at MaxQ for MinQ).
func Abs(q Q) Q {
	if q >= 0 {
		return q
	}
	if q == MinQ {
		return MaxQ
	}
	return -q
}

func satur(v int64) Q { return mat.SatQ16[Q](v) }

// L1DistAcc returns Σ|aᵢ−bᵢ| with a 64-bit accumulator.
func L1DistAcc(a, b []Q) Q { return mat.L1DistQ16(a, b) }

// Sigmoid evaluates the logistic function by table interpolation — the
// shared piecewise-linear kernel over [−8, 8].
func Sigmoid(x Q) Q { return mat.SigmoidQ16(x) }

// QuantizeVecChecked converts a float vector to Q and reports how many
// elements saturated.
func QuantizeVecChecked(xs []float64) ([]Q, int) {
	out := make([]Q, len(xs))
	sat := 0
	for i, v := range xs {
		q, s := FromFloatChecked(v)
		out[i] = q
		if s {
			sat++
		}
	}
	return out, sat
}
