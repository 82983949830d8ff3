package mat

import "math"

// Q16.16 fixed-point kernels — the third backend of the precision-
// parameterized kernel layer, shared with internal/fixed so the FPU-less
// deployment path no longer hand-rolls its own matvec and sigmoid.
//
// The kernels are generic over any type whose underlying representation
// is int32 (internal/fixed's Q satisfies the constraint), carrying 16
// integer and 16 fractional bits. Products run through 64-bit
// intermediates; results saturate at the representable range instead of
// wrapping, matching the behaviour of a careful MCU port.

// FixedElement constrains the Q16.16 fixed-point element types the
// integer kernels instantiate at.
type FixedElement interface {
	~int32
}

// Q16Shift is the fractional bit count of the Q16.16 format.
const Q16Shift = 16

// Q16One is the raw Q16.16 representation of 1.0.
const Q16One = int32(1) << Q16Shift

// SatQ16 saturates a 64-bit intermediate to the Q16.16 range.
func SatQ16[F FixedElement](v int64) F {
	switch {
	case v > int64(math.MaxInt32):
		return F(math.MaxInt32)
	case v < int64(math.MinInt32):
		return F(math.MinInt32)
	}
	return F(v)
}

// AddQ16 returns a+b with saturation.
func AddQ16[F FixedElement](a, b F) F { return SatQ16[F](int64(a) + int64(b)) }

// SubQ16 returns a−b with saturation.
func SubQ16[F FixedElement](a, b F) F { return SatQ16[F](int64(a) - int64(b)) }

// MulQ16 multiplies two Q16.16 values with a 64-bit intermediate (no
// overflow of the product itself; the result saturates).
func MulQ16[F FixedElement](a, b F) F {
	return SatQ16[F]((int64(a) * int64(b)) >> Q16Shift)
}

// DotQ16 accumulates Σ aᵢ·bᵢ in a 64-bit accumulator and converts once —
// the standard fixed-point MAC-loop pattern (one shift per dot product,
// not per term).
func DotQ16[F FixedElement](a, b []F) F {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var acc int64
	for i, v := range a {
		acc += int64(v) * int64(b[i])
	}
	return SatQ16[F](acc >> Q16Shift)
}

// L1DistQ16 returns Σ|aᵢ−bᵢ| with a 64-bit accumulator.
func L1DistQ16[F FixedElement](a, b []F) F {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var acc int64
	for i, v := range a {
		d := int64(v) - int64(b[i])
		if d < 0 {
			d = -d
		}
		acc += d
	}
	return SatQ16[F](acc)
}

// MulVecQ16 computes dst[i] = dot(row i of w, x) for the row-major
// rows×cols weight slab w, with rows = len(dst) and cols = len(x) —
// the fixed-point counterpart of MulVec.
func MulVecQ16[F FixedElement](dst []F, w []F, x []F) {
	if len(w) != len(dst)*len(x) {
		panic(ErrShape)
	}
	cols := len(x)
	for i := range dst {
		dst[i] = DotQ16(w[i*cols:(i+1)*cols], x)
	}
}

// MulVecTransQ16 computes dst = wᵀ·x for the row-major rows×cols slab w,
// with rows = len(x) and cols = len(dst) — the fixed-point counterpart
// of MulVecTrans. Each term saturates individually, matching the
// per-MAC behaviour of a 32-bit accumulator MCU port.
func MulVecTransQ16[F FixedElement](dst []F, w []F, x []F) {
	if len(w) != len(x)*len(dst) {
		panic(ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	cols := len(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := w[i*cols : (i+1)*cols]
		for j, v := range row {
			dst[j] = AddQ16(dst[j], MulQ16(xi, v))
		}
	}
}

// sigmoidQ16Table holds a piecewise-linear approximation of the logistic
// function over [-8, 8] with 64 segments; beyond the range it clamps to
// 0/1. Max absolute error ≈ 1e-3, well below the Q16.16 noise floor of
// the downstream dot products at D≈500.
const sigmoidQ16Segments = 64

var sigmoidQ16Table [sigmoidQ16Segments + 1]int32

func init() {
	for i := 0; i <= sigmoidQ16Segments; i++ {
		x := -8.0 + float64(16.0*float64(i)/float64(sigmoidQ16Segments))
		sigmoidQ16Table[i] = int32(math.Round(1.0 / (1.0 + math.Exp(-x)) * float64(Q16One)))
	}
}

// SigmoidQ16 evaluates the logistic function by table interpolation —
// the table-driven activation an FPU-less MCU port uses in place of exp.
func SigmoidQ16[F FixedElement](x F) F {
	lo := int64(-8) << Q16Shift
	hi := int64(8) << Q16Shift
	if int64(x) <= lo {
		return 0
	}
	if int64(x) >= hi {
		return F(Q16One)
	}
	// Position within the table: (x+8)/16 · segments.
	pos := (int64(x) - lo) * sigmoidQ16Segments
	span := hi - lo
	idx := pos / span
	frac := F(((pos % span) << Q16Shift) / span)
	a := F(sigmoidQ16Table[idx])
	b := F(sigmoidQ16Table[idx+1])
	return AddQ16(a, MulQ16(frac, SubQ16(b, a)))
}
