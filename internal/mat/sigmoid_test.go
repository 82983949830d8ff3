package mat

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// sigmoidRef is the scalar formula SigmoidBias must reproduce bit for
// bit: the sum at E, the logistic at float64, narrowed back to E.
func sigmoidRef[E Element](z, b E) E {
	s := z + b
	return E(1 / (1 + math.Exp(float64(-s))))
}

// sigmoidSpecials are the arguments the vector kernels hand to the Go
// loop (beyond ±708, NaN, ±Inf) or that sit on its edges (±0,
// subnormals).
var sigmoidSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1040, 0x1p-149, -0x1p-140,
	708, -708, 709, -709, 746, -746, 707.9999999999999, -707.9999999999999,
	math.NaN(), x86NaN, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
}

// sigmoidArg draws a logistic argument: half near the origin where σ
// varies, a quarter across the kernels' whole range, a quarter at
// log-uniform magnitudes from 1e-12 to 700.
func sigmoidArg(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0, 1:
		return rng.Float64()*80 - 40
	case 2:
		return rng.Float64()*1416 - 708
	default:
		m := math.Pow(10, rng.Float64()*14.845-12)
		if rng.Intn(2) == 0 {
			m = -m
		}
		return m
	}
}

// checkSigmoid runs SigmoidBias on z+b (copied) and compares every
// element's bits with sigmoidRef.
func checkSigmoid[E Element](t *testing.T, z, b []E, what string) {
	t.Helper()
	got := append([]E(nil), z...)
	SigmoidBias(got, b)
	for i := range got {
		want := sigmoidRef(z[i], b[i])
		if bitsOf(got[i]) != bitsOf(want) {
			t.Fatalf("%s: element %d of %d: σ(%v + %v) = %v (%#x), want %v (%#x)",
				what, i, len(z), z[i], b[i], got[i], bitsOf(got[i]), want, bitsOf(want))
		}
	}
}

func bitsOf[E Element](v E) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// TestSigmoidBiasMatchesFormula pins the vector sigmoid to the scalar
// formula, Float64bits (Float32bits) for Float64bits, at both element
// types: 2^20 random arguments per type, every special argument in
// every lane of a group, and lengths 1–9 and 22. It runs once with the
// probe forced off and, on every CPU with AVX2 and FMA, once with the
// vector kernels forced on — even if their start-up self-check turned
// them off, so a mismatch is reported here rather than hidden. Only a
// GODEBUG that masks CPU features (and so can move math.Exp off its FMA
// path) skips the vector run.
func TestSigmoidBiasMatchesFormula(t *testing.T) {
	defer func(on bool) { sigmoidSIMD = on }(sigmoidSIMD)
	modes := []bool{false}
	switch {
	case !f32SIMD:
		t.Log("no AVX2+FMA on this CPU; checking the Go loop only")
	case strings.Contains(os.Getenv("GODEBUG"), "cpu."):
		t.Log("GODEBUG masks CPU features; checking the Go loop only")
	default:
		modes = append(modes, true)
	}
	for _, on := range modes {
		sigmoidSIMD = on
		t.Run(fmt.Sprintf("f64/simd=%v", on), func(t *testing.T) { testSigmoid[float64](t) })
		t.Run(fmt.Sprintf("f32/simd=%v", on), func(t *testing.T) { testSigmoid[float32](t) })
	}
}

func testSigmoid[E Element](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 20
	z, b := make([]E, n), make([]E, n)
	for i := range z {
		z[i] = E(sigmoidArg(rng))
		if rng.Intn(2) == 0 {
			b[i] = E(rng.NormFloat64())
		}
	}
	checkSigmoid(t, z, b, "random")

	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 22}
	for _, s := range sigmoidSpecials {
		for _, n := range lengths {
			for lane := 0; lane < n; lane++ {
				z, b := make([]E, n), make([]E, n)
				for i := range z {
					z[i] = E(rng.Float64()*40 - 20)
				}
				z[lane] = E(s)
				checkSigmoid(t, z, b, fmt.Sprintf("special %v at %d", s, lane))
			}
		}
	}
	for _, n := range lengths {
		for trial := 0; trial < 200; trial++ {
			z, b := make([]E, n), make([]E, n)
			for i := range z {
				z[i] = E(sigmoidArg(rng))
				if rng.Intn(16) == 0 {
					z[i] = E(sigmoidSpecials[rng.Intn(len(sigmoidSpecials))])
				}
				b[i] = E(rng.NormFloat64())
			}
			checkSigmoid(t, z, b, fmt.Sprintf("length %d", n))
		}
	}
}

func TestSigmoidBiasShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SigmoidBias with a short bias did not panic")
		}
	}()
	SigmoidBias(make([]float64, 4), make([]float64, 3))
}

// TestSigmoidBiasZeroAlloc pins that the vector dispatch allocates
// nothing.
func TestSigmoidBiasZeroAlloc(t *testing.T) {
	z, b := make([]float64, 22), make([]float64, 22)
	z32, b32 := make([]float32, 22), make([]float32, 22)
	if allocs := testing.AllocsPerRun(20, func() {
		SigmoidBias(z, b)
		SigmoidBias(z32, b32)
	}); allocs != 0 {
		t.Errorf("SigmoidBias: %v allocs/op, want 0", allocs)
	}
}
