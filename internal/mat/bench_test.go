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

func randVec(r *rng.Rand, n int) []float64 {
	v := make([]float64, n)
	r.FillUniform(v, -1, 1)
	return v
}

func BenchmarkMulVec(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			w := randMatrix(r, s.h, s.d)
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

func BenchmarkMulVecTrans(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(benchName(s.d, s.h), func(b *testing.B) {
			r := rng.New(1)
			beta := randMatrix(r, s.h, s.d) // H×M with M=D (autoencoder)
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
			beta := randMatrix(r, s.h, s.d)
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

// batchSizes is the sample-block axis of the batched-kernel benches:
// per-sample (the degenerate batch), the L1-friendly mid block, and the
// chunk size the scoring pipeline actually uses.
var batchSizes = []int{1, 8, 64}

func randRows(r *rng.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randVec(r, d)
	}
	return rows
}

// BenchmarkMulBatchRows is the hidden-layer GEMM of the batched scoring
// path at the detector's real shape: N samples against the H×D weight
// slab, which streams through cache once per block instead of once per
// sample. ns/op is per sample, so rows compare directly across N.
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

// BenchmarkMulBatchF32 is the float32 hidden-layer GEMM (dst = xs·wᵀ)
// of the batched scoring path; ns/op is per sample.
func BenchmarkMulBatchF32(b *testing.B) {
	const d, h = 511, 22
	for _, n := range batchSizes {
		b.Run(fmt.Sprintf("D%d_H%d/batch%d/f32simd=%v", d, h, n, F32SIMD()), func(b *testing.B) {
			r := rng.New(1)
			w := NewOf[float32](h, d)
			xs := NewOf[float32](n, d)
			for i := range w.Data {
				w.Data[i] = float32(r.Float64()*2 - 1)
			}
			for i := range xs.Data {
				xs.Data[i] = float32(r.Float64()*2 - 1)
			}
			dst := NewOf[float32](n, h)
			b.SetBytes(int64(4 * h * d))
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				MulBatchF32(dst, xs, w)
			}
		})
	}
}

// sinkFloat defeats dead-code elimination in value-returning benches.
var sinkFloat float64
