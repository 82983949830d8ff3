// Package kmeans implements Lloyd's k-means with k-means++ seeding.
//
// Three places in the reproduction call it: the unsupervised initial
// labelling the paper assumes for the training set (§3.2 "it is assumed
// that these initial samples can be labeled with a clustering algorithm
// such as k-means"), the SPLL baseline's cluster step (Kuncheva 2013), and
// the batch-adapt baseline's window relabelling. The proposed method's
// Init_Coord/Update_Coord routines (Algorithms 3 and 4, "inspired by
// k-means++" and "very similar to a sequential k-means") live in
// internal/core, which updates its centroids in place.
package kmeans

import (
	"math"

	"edgedrift/internal/mat"
	"edgedrift/internal/rng"
)

// Result holds the output of a clustering run.
type Result struct {
	// Centroids[c] is the centre of cluster c.
	Centroids [][]float64
	// Assign[i] is the cluster index of input sample i.
	Assign []int
	// Inertia is the sum of squared distances of samples to their
	// assigned centroid.
	Inertia float64
	// Iterations actually performed before convergence or the cap.
	Iterations int
}

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters (required, ≥ 1).
	K int
	// MaxIter caps Lloyd iterations; 0 means 100.
	MaxIter int
	// Tol stops early when total centroid movement (L2) falls below it;
	// 0 means 1e-9.
	Tol float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxIter == 0 {
		out.MaxIter = 100
	}
	if out.Tol == 0 {
		out.Tol = 1e-9
	}
	return out
}

// SeedPlusPlus selects cfg.K initial centroids from data using k-means++
// (Arthur & Vassilvitskii 2007): the first uniformly, each next with
// probability proportional to squared distance from the nearest centroid
// chosen so far.
func SeedPlusPlus(data [][]float64, k int, r *rng.Rand) [][]float64 {
	n := len(data)
	if k <= 0 || n == 0 {
		panic("kmeans: need k ≥ 1 and non-empty data")
	}
	if k > n {
		k = n
	}
	cents := make([][]float64, 0, k)
	cents = append(cents, mat.CopyVec(data[r.Intn(n)]))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = mat.SqDist(data[i], cents[0])
	}
	for len(cents) < k {
		var total float64
		for _, v := range d2 {
			total += v
		}
		var idx int
		if total <= 0 {
			// All points coincide with chosen centroids; pick uniformly.
			idx = r.Intn(n)
		} else {
			target := r.Float64() * total
			var acc float64
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := mat.CopyVec(data[idx])
		cents = append(cents, c)
		for i := range d2 {
			if v := mat.SqDist(data[i], c); v < d2[i] {
				d2[i] = v
			}
		}
	}
	return cents
}

// Run clusters data with Lloyd's algorithm seeded by k-means++.
func Run(data [][]float64, cfg Config, r *rng.Rand) *Result {
	c := cfg.withDefaults()
	if len(data) == 0 {
		panic("kmeans: empty data")
	}
	dim := len(data[0])
	cents := SeedPlusPlus(data, c.K, r)
	k := len(cents)
	assign := make([]int, len(data))
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	res := &Result{Centroids: cents, Assign: assign}
	for iter := 0; iter < c.MaxIter; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		var inertia float64
		for i, x := range data {
			best, bd := 0, math.Inf(1)
			for ci, cent := range cents {
				if d := mat.SqDist(x, cent); d < bd {
					best, bd = ci, d
				}
			}
			assign[i] = best
			inertia += bd
		}
		res.Inertia = inertia
		// Update step.
		for ci := range sums {
			counts[ci] = 0
			for j := range sums[ci] {
				sums[ci][j] = 0
			}
		}
		for i, x := range data {
			ci := assign[i]
			counts[ci]++
			for j, v := range x {
				sums[ci][j] += v
			}
		}
		var moved float64
		for ci := range cents {
			if counts[ci] == 0 {
				// Re-seed an empty cluster on the point farthest from its
				// centroid, the standard repair.
				far, fd := 0, -1.0
				for i, x := range data {
					if d := mat.SqDist(x, cents[assign[i]]); d > fd {
						far, fd = i, d
					}
				}
				moved += mat.L2Dist(cents[ci], data[far])
				copy(cents[ci], data[far])
				continue
			}
			inv := 1 / float64(counts[ci])
			var m float64
			for j := range cents[ci] {
				nv := float64(sums[ci][j] * inv)
				d := nv - cents[ci][j]
				m += float64(d * d)
				cents[ci][j] = nv
			}
			moved += math.Sqrt(m)
		}
		if moved < c.Tol {
			break
		}
	}
	// Final assignment against the last centroid update.
	var inertia float64
	for i, x := range data {
		best, bd := 0, math.Inf(1)
		for ci, cent := range cents {
			if d := mat.SqDist(x, cent); d < bd {
				best, bd = ci, d
			}
		}
		assign[i] = best
		inertia += bd
	}
	res.Inertia = inertia
	return res
}

// Nearest returns the index of the centroid closest (squared Euclidean) to
// x, and that squared distance.
func Nearest(centroids [][]float64, x []float64) (idx int, sq float64) {
	if len(centroids) == 0 {
		panic("kmeans: Nearest with no centroids")
	}
	idx, sq = 0, math.Inf(1)
	for c, cent := range centroids {
		if d := mat.SqDist(x, cent); d < sq {
			idx, sq = c, d
		}
	}
	return idx, sq
}
