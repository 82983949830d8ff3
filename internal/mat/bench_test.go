package mat

import (
	"fmt"
	"testing"

	"edgedrift/internal/rng"
)

// The detector's real shapes: the cooling-fan configuration has D=511
// inputs and H=22 hidden units; the NSL-KDD surrogate uses a smaller D
// with the same H; wider hidden layers (64, 128) are the scaling
// direction the ablation benches explore. Every per-sample step of the
// method reduces to these kernels at these shapes:
//
//	hiddenInto:  MulVec       (H×D)·x           — prediction and training
//	Predict:     MulVecTrans  (H×M)ᵀ·h, M=D     — reconstruction
//	Train:       MulVec       (H×H)·h  (twice)  — RLS gain
//	Train:       AddScaledOuter on H×H and H×D  — rank-1 updates
//	Train:       Dot          (H)               — Sherman-Morrison denom
//	InitBatch:   Mul, MulTransA                 — host-side only
var benchShapes = []struct {
	d, h int
}{
	{511, 22},
	{511, 64},
	{511, 128},
}

func benchName(d, h int) string { return fmt.Sprintf("D%d_H%d", d, h) }

func randMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	r.FillUniform(m.Data, -1, 1)
	return m
}

// randWeights is randMatrix in the layout the OS-ELM model gives its W
// and β (NewAligned: stride 512 at D=511), so the weight kernels are
// timed as they ship.
func randWeights(r *rng.Rand, rows, cols int) *Matrix {
	m := NewAligned(rows, cols)
	for i := 0; i < rows; i++ {
		r.FillUniform(m.Row(i), -1, 1)
	}
	return m
}

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	r.FillUniform(v, -1, 1)
	return v
}

func BenchmarkMulVec(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			w := randWeights(r, s.h, s.d)
			x := randVec(r, s.d)
			dst := make([]float64, s.h)
			b.SetBytes(int64(8 * s.h * s.d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulVec(dst, w, x)
			}
		})
	}
}

// BenchmarkMulVecNarrow is the hidden projection at the NSL-KDD
// surrogate's shape (D=38, H=22), where a matvec is a few hundred
// nanoseconds and per-call overhead shows.
func BenchmarkMulVecNarrow(b *testing.B) {
	const d, h = 38, 22
	r := rng.New(1)
	w := randMatrix(r, h, d)
	x := randVec(r, d)
	dst := make([]float64, h)
	b.SetBytes(int64(8 * h * d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec(dst, w, x)
	}
}

// BenchmarkSigmoidBias is the hidden activation of one sample at H=22,
// the width of every detector configuration, for both float backends.
func BenchmarkSigmoidBias(b *testing.B) {
	const h = 22
	z := randVec(rng.New(1), h)
	bias := randVec(rng.New(2), h)
	b.Run("f64", func(b *testing.B) { benchSigmoid(b, z, bias) })
	b.Run("f32", func(b *testing.B) {
		z32, bias32 := make([]float32, h), make([]float32, h)
		ConvertVec(z32, z)
		ConvertVec(bias32, bias)
		benchSigmoid(b, z32, bias32)
	})
}

func benchSigmoid[E Element](b *testing.B, z, bias []E) {
	dst := make([]E, len(z))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, z)
		SigmoidBias(dst, bias)
	}
}

// BenchmarkMulVecTrans is the reconstruction βᵀh at the NSL-KDD
// surrogate's width (D=38) and the fan shapes.
func BenchmarkMulVecTrans(b *testing.B) {
	for _, s := range append([]struct{ d, h int }{{38, 22}}, benchShapes...) {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			beta := randWeights(r, s.h, s.d) // H×M with M=D (autoencoder)
			h := randVec(r, s.h)
			dst := make([]float64, s.d)
			b.SetBytes(int64(8 * s.h * s.d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulVecTrans(dst, beta, h)
			}
		})
	}
}

// BenchmarkMulVecTransF32 is the float32 backend's reconstruction at
// both detector widths.
func BenchmarkMulVecTransF32(b *testing.B) {
	for _, s := range []struct{ d, h int }{{38, 22}, {511, 22}} {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			beta := NewOf[float32](s.h, s.d)
			ConvertVec(beta.Data, randVec(r, s.h*s.d))
			h := make([]float32, s.h)
			ConvertVec(h, randVec(r, s.h))
			dst := make([]float32, s.d)
			b.SetBytes(int64(4 * s.h * s.d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulVecTransF32(dst, beta, h)
			}
		})
	}
}

// BenchmarkAllFinite is the ingestion guard's scan of one sample at
// both detector widths.
func BenchmarkAllFinite(b *testing.B) {
	for _, n := range []int{38, 511} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			x := randVec(rng.New(1), n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			ok := true
			for i := 0; i < b.N; i++ {
				ok = AllFinite(x) && ok
			}
			if !ok {
				b.Fatal("finite input reported non-finite")
			}
		})
	}
}

// BenchmarkRunningMeanUpdateL1Dist times the detector's window step on
// one class at the NSL-KDD and cooling-fan widths: "fused" is the one
// pass, "calls" is RunningMeanUpdate followed by L1Dist.
func BenchmarkRunningMeanUpdateL1Dist(b *testing.B) {
	for _, n := range []int{38, 511} {
		r := rng.New(1)
		mean, x, ref := randVec(r, n), randVec(r, n), randVec(r, n)
		b.Run(fmt.Sprintf("N%d/fused", n), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				_, d := RunningMeanUpdateL1Dist(mean, 1000, x, ref)
				s += d
			}
			sinkFloat = s
		})
		b.Run(fmt.Sprintf("N%d/calls", n), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				RunningMeanUpdate(mean, 1000, x)
				s += L1Dist(mean, ref)
			}
			sinkFloat = s
		})
	}
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{22, 128, 511} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			r := rng.New(1)
			x := randVec(r, n)
			y := randVec(r, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(x, y)
			}
			sinkFloat = s
		})
	}
}

// BenchmarkAddScaledOuterP is the H×H rank-1 Sherman-Morrison update of
// Train: P ← P − ph·phᵀ/denom.
func BenchmarkAddScaledOuterP(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			p := randMatrix(r, s.h, s.h)
			ph := randVec(r, s.h)
			b.SetBytes(int64(8 * s.h * s.h))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.AddScaledOuter(-1e-9, ph, ph)
			}
		})
	}
}

// BenchmarkAddScaledOuterBeta is the H×M (M=D) output-weight update of
// Train: β ← β + k·eᵀ.
func BenchmarkAddScaledOuterBeta(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			beta := randWeights(r, s.h, s.d)
			k := randVec(r, s.h)
			e := randVec(r, s.d)
			b.SetBytes(int64(8 * s.h * s.d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				beta.AddScaledOuter(1e-9, k, e)
			}
		})
	}
}

func BenchmarkMul(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			p := randMatrix(r, s.h, s.h)
			ht := randMatrix(r, s.h, s.d)
			dst := New(s.h, s.d)
			b.SetBytes(int64(8 * s.h * s.h * s.d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Mul(dst, p, ht)
			}
		})
	}
}

// BenchmarkMulTransA is the Gram-matrix build HᵀH of batch
// initialisation, with N=256 batch rows.
func BenchmarkMulTransA(b *testing.B) {
	const batch = 256
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			hm := randMatrix(r, batch, s.h)
			dst := New(s.h, s.h)
			b.SetBytes(int64(8 * batch * s.h * s.h))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTransA(dst, hm, hm)
			}
		})
	}
}

// batchSizes is the sample-count axis of BenchmarkMulBatchRows.
var batchSizes = []int{1, 8, 64}

func randRows(r *rng.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randVec(r, d)
	}
	return rows
}

// BenchmarkMulBatchRows is the hidden-layer pass over N samples at the
// detector's real shape: one MulVec per sample against the H×D weight
// slab. ns/op is per sample, so rows compare directly across N.
func BenchmarkMulBatchRows(b *testing.B) {
	const d, h = 511, 22
	for _, n := range batchSizes {
		b.Run(fmt.Sprintf("D%d_H%d/batch%d", d, h, n), func(b *testing.B) {
			r := rng.New(1)
			w := randMatrix(r, h, d)
			xs := randRows(r, n, d)
			dst := New(n, h)
			b.SetBytes(int64(8 * h * d))
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				MulBatchRows(dst, xs, w)
			}
		})
	}
}

// sinkFloat defeats dead-code elimination in value-returning benches.
var sinkFloat float64
