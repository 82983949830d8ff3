package stats

import "math"

// Running accumulates count, mean and variance of a scalar stream in O(1)
// memory using Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Observe folds x into the accumulator.
func (r *Running) Observe(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += float64(d * (x - r.mean))
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 with no observations).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the population variance (0 with fewer than 2 observations).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// Merge combines another accumulator into r (Chan et al. parallel form),
// as if r had also observed everything o observed.
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	nA, nB := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	total := nA + nB
	r.mean += delta * nB / total
	r.m2 += o.m2 + delta*delta*nA*nB/total
	r.n += o.n
}
