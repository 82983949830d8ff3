package mat

import "math"

// Dot returns the inner product of a and b, which must have equal length.
func Dot[E Element](a, b []E) E {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	if useF64SIMD[E](len(a)) {
		return E(dotF64(f64View(a), f64View(b)))
	}
	return dotKernel(a, b)
}

// dotKernel is the shared 4-accumulator inner-product core. Callers
// guarantee len(b) >= len(a). Independent accumulators break the
// loop-carried dependency of the naive sum, letting the FPU pipeline
// overlap four multiply-adds in flight.
func dotKernel[E Element](a, b []E) E {
	var s0, s1, s2, s3 E
	n := len(a)
	n4 := n &^ 3
	var i int
	for ; i < n4; i += 4 {
		s0 += E(a[i] * b[i])
		s1 += E(a[i+1] * b[i+1])
		s2 += E(a[i+2] * b[i+2])
		s3 += E(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s0 += E(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// AxpyVec performs y ← y + s·x element-wise.
func AxpyVec[E Element](y []E, s E, x []E) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += E(s * v)
	}
}

// SubVec computes dst = a − b element-wise. dst may alias a or b.
func SubVec[E Element](dst, a, b []E) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(ErrShape)
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// L1Dist returns the Manhattan distance Σ|aᵢ−bᵢ| — the metric Algorithm 1
// of the paper uses for centroid drift (line 14). The accumulation runs
// in the element type; the scalar result is returned at float64.
func L1Dist[E Element](a, b []E) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var s E
	for i, v := range a {
		s += E(math.Abs(float64(v - b[i])))
	}
	return float64(s)
}

// L2Dist returns the Euclidean distance between a and b.
func L2Dist[E Element](a, b []E) float64 {
	return math.Sqrt(float64(SqDist(a, b)))
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist[E Element](a, b []E) E {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var s E
	for i, v := range a {
		d := v - b[i]
		s += E(d * d)
	}
	return s
}

// MeanVec computes the element-wise mean of rows into dst (len = row
// length). rows must be non-empty and rectangular.
func MeanVec[E Element](dst []E, rows [][]E) {
	if len(rows) == 0 {
		panic("mat: MeanVec of empty set")
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, r := range rows {
		if len(r) != len(dst) {
			panic(ErrShape)
		}
		for i, v := range r {
			dst[i] += v
		}
	}
	inv := 1 / E(len(rows))
	for i := range dst {
		dst[i] *= inv
	}
}

// RunningMeanUpdate folds sample x into the running mean held in mean with
// prior count n, returning the new count. This is the sequential centroid
// update of Algorithm 1 line 12 and Algorithm 4 line 3:
//
//	mean ← (mean·n + x) / (n + 1)
func RunningMeanUpdate[E Element](mean []E, n int, x []E) int {
	if len(mean) != len(x) {
		panic(ErrShape)
	}
	fn := E(n)
	inv := 1 / (fn + 1)
	for i, v := range x {
		mean[i] = (E(mean[i]*fn) + v) * inv
	}
	return n + 1
}

// RunningMeanUpdateL1Dist is RunningMeanUpdate(mean, n, x) followed by
// L1Dist(mean, ref), with the same bits, in one pass: each updated
// element is measured against ref as it is written. L1Dist's serial
// add chain bounds the loop, so the update runs in its shadow. Each
// updated element is rounded explicitly before the subtraction, as its
// store would round it, so no target fuses it into the distance.
func RunningMeanUpdateL1Dist[E Element](mean []E, n int, x, ref []E) (int, float64) {
	if len(mean) != len(x) || len(ref) != len(x) {
		panic(ErrShape)
	}
	mean, ref = mean[:len(x)], ref[:len(x)]
	fn := E(n)
	inv := 1 / (fn + 1)
	var s E
	for i, v := range x {
		m := E((E(mean[i]*fn) + v) * inv)
		mean[i] = m
		s += E(math.Abs(float64(m - ref[i])))
	}
	return n + 1, float64(s)
}

// EWMAUpdate folds x into mean with weight gamma on the new sample:
// mean ← (1−γ)·mean + γ·x. This implements the paper's remark that recent
// test centroids may weight newer samples more heavily.
func EWMAUpdate[E Element](mean []E, gamma E, x []E) {
	if len(mean) != len(x) {
		panic(ErrShape)
	}
	keep := 1 - gamma
	for i, v := range x {
		mean[i] = E(keep*mean[i]) + E(gamma*v)
	}
}

// AllFinite reports whether every element of x is finite. The v−v trick
// compiles to one subtract and one add per element: v−v is 0 for every
// finite v and NaN for ±Inf and NaN, so an accumulator ends non-zero
// (NaN) exactly when a non-finite element reached it. Four independent
// accumulators keep four adds in flight instead of one serial chain.
func AllFinite[E Element](x []E) bool {
	var a0, a1, a2, a3 E
	n4 := len(x) &^ 3
	var i int
	for ; i < n4; i += 4 {
		v := x[i : i+4 : i+4]
		a0 += v[0] - v[0]
		a1 += v[1] - v[1]
		a2 += v[2] - v[2]
		a3 += v[3] - v[3]
	}
	for _, v := range x[i:] {
		a0 += v - v
	}
	return (a0+a1)+(a2+a3) == 0
}

// CopyVec returns a copy of x.
func CopyVec[E Element](x []E) []E {
	c := make([]E, len(x))
	copy(c, x)
	return c
}

// ConvertVec copies src into dst element-by-element across element
// types — the precision boundary the mixed-precision training path
// crosses each sample. dst and src must have equal length.
func ConvertVec[D, S Element](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(ErrShape)
	}
	i := convertF32F64(dst, src)
	for ; i < len(src); i++ {
		dst[i] = D(src[i])
	}
}
