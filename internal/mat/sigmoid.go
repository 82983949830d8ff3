package mat

import (
	"math"
	"unsafe"
)

// sigmoidSIMD reports whether the vector sigmoid kernels (f64_amd64.s)
// run. Set once at init by the amd64 feature probe, under the same
// AVX2+FMA gate as the float32 kernels and only after sigmoidMatchesExp
// confirmed them against math.Exp; never true elsewhere. Tests toggle
// it to compare the kernels with the Go loop.
var sigmoidSIMD bool

// SigmoidBias applies the logistic function in place after a bias add:
// dst[i] = E(1 / (1 + exp(−(dst[i] + bias[i])))), the sum formed at E
// and the logistic evaluated at float64 with math.Exp. On amd64 hosts
// with AVX2 and FMA, groups of four run a vector kernel that returns
// the same bits as that expression; the len%4 tail and any group with
// an argument beyond ±708, NaN or ±Inf run the Go loop.
func SigmoidBias[E Element](dst, bias []E) {
	if len(bias) != len(dst) {
		panic(ErrShape)
	}
	i := 0
	if sigmoidSIMD {
		i = sigmoidVec(dst, bias)
	}
	sigmoidGo(dst[i:], bias[i:])
}

// sigmoidGo is SigmoidBias's scalar loop.
func sigmoidGo[E Element](dst, bias []E) {
	bias = bias[:len(dst)]
	for i := range dst {
		z := dst[i] + bias[i]
		dst[i] = E(1 / (1 + math.Exp(float64(-z))))
	}
}

// sigmoidVec runs the vector kernel over dst's whole groups of four,
// sending each group the kernel declines to sigmoidGo, and returns how
// many leading elements are done.
func sigmoidVec[E Element](dst, bias []E) int {
	var z E
	done := 0
	for groups := len(dst) / 4; groups > 0; {
		var k int
		if unsafe.Sizeof(z) == 8 {
			k = sigmoidF64Asm((*float64)(unsafe.Pointer(&dst[done])), (*float64)(unsafe.Pointer(&bias[done])), groups)
		} else {
			k = sigmoidF32Asm((*float32)(unsafe.Pointer(&dst[done])), (*float32)(unsafe.Pointer(&bias[done])), groups)
		}
		done += 4 * k
		groups -= k
		if groups > 0 {
			sigmoidGo(dst[done:done+4], bias[done:done+4])
			done += 4
			groups--
		}
	}
	return done
}

// sigmoidMatchesExp reports whether the vector kernels reproduce the Go
// loop on a spread of arguments across their range, at both widths. The
// kernels copy the FMA path of the amd64 math.Exp; this catches a
// runtime whose math.Exp takes another path (GODEBUG=cpu.fma=off, or a
// toolchain whose exp changed) before any result could differ.
func sigmoidMatchesExp() bool {
	const n = 256
	var z64, b64, want64 [n]float64
	var z32, b32, want32 [n]float32
	for i := range z64 {
		// Arguments from −700 to 700, denser near 0 where σ varies.
		t := float64(i)/(n-1)*2 - 1
		z64[i] = 700 * t * t * t
		b64[i] = float64(i%7) * 0x1p-9
		z32[i], b32[i] = float32(z64[i]), float32(b64[i])
	}
	want64, want32 = z64, z32
	sigmoidGo(want64[:], b64[:])
	sigmoidGo(want32[:], b32[:])
	sigmoidVec(z64[:], b64[:])
	sigmoidVec(z32[:], b32[:])
	for i := range z64 {
		if math.Float64bits(z64[i]) != math.Float64bits(want64[i]) ||
			math.Float32bits(z32[i]) != math.Float32bits(want32[i]) {
			return false
		}
	}
	return true
}
