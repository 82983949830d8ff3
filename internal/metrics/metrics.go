// Package metrics is the lightweight metrics core of the observability
// layer: counters, gauges and fixed-bucket latency histograms with
// power-of-two buckets. Everything here is allocation-free on the
// update path and safe for one writer + many readers (atomic loads),
// which is exactly the shape of the streaming pipeline: each stage is
// single-threaded by contract, while an exposition scrape may read the
// same numbers from another goroutine at any time.
//
// The package deliberately takes no time measurements itself — whether
// and how often to pay a clock syscall is the instrumenting caller's
// decision (see core.Instrumented's sampled timing), so the paper's
// per-sample cost model stays untouched when instrumentation is off.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Updates are atomic so a scrape can read a live counter
// without synchronising with the hot path.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-written float64 value (a level, not a count). The
// zero value is ready to use and reads as 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the last stored value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the fixed bucket count of Histogram. Bucket i
// holds observations v with bits.Len64(v) == i, i.e. v < 2^i and
// v >= 2^(i-1); the upper bound of bucket i is therefore 2^i − 1.
// With nanosecond observations the top bucket boundary is 2^39 ns
// ≈ 9.2 minutes — far beyond any per-sample latency this system can
// produce; larger observations clamp into the last bucket.
const HistogramBuckets = 40

// Histogram is a fixed-range latency histogram with power-of-two
// buckets: Observe costs one bits.Len64 plus three atomic adds, no
// floating point, no allocation, no locks. The zero value is ready to
// use. Intended unit is nanoseconds, but the histogram is unit-blind;
// the exposition layer applies the unit scale.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistogramBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile estimates the q-quantile of the live histogram —
// Snapshot().Quantile(q) without making the caller hold a snapshot. See
// HistogramSnapshot.Quantile for the estimate's fidelity.
func (h *Histogram) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// Snapshot returns a consistent-enough point-in-time copy for
// exposition (individual loads are atomic; the set is not a single
// linearised cut, which is fine for monitoring counters).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a plain-value copy of a Histogram, safe to pass
// around and render without touching the live atomics.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistogramBuckets]uint64
}

// UpperBound returns the inclusive upper bound of bucket i (2^i − 1).
func (HistogramSnapshot) UpperBound(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Delta returns the observations recorded between prev and s — the
// windowed view a control loop needs from a lifetime-cumulative
// histogram (take a snapshot each tick and diff against the previous
// one). prev must be an earlier snapshot of the same histogram.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	d.Count = s.Count - prev.Count
	d.Sum = s.Sum - prev.Sum
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Mean returns the mean observed value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution: it finds the bucket holding the observation of rank
// ⌈q·Count⌉ and interpolates by that rank within the bucket, as if its
// observations were spread evenly over the bucket's integers. Observations
// spread that way read back exactly; at worst the estimate stays inside
// the bucket, within 2× of the true value, as the bucket's upper bound
// was. A bucket holding one observation reads its upper bound.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if cum+c >= target {
			return s.interpolate(i, target-cum)
		}
		cum += c
	}
	return s.UpperBound(HistogramBuckets - 1)
}

// interpolate returns the value of rank k (1 ≤ k ≤ Buckets[i]) within
// bucket i, whose observations are taken as spread evenly over its
// integers [2^(i−1), 2^i − 1] (bucket 0 holds only 0): the bucket's
// lower bound plus ⌈width·k/count⌉ − 1.
func (s HistogramSnapshot) interpolate(i int, k uint64) uint64 {
	if i == 0 {
		return 0
	}
	lo := uint64(1) << uint(i-1)
	// width·k/count ≤ width, so the quotient fits in 64 bits.
	hi, low := bits.Mul64(lo, k)
	off, rem := bits.Div64(hi, low, s.Buckets[i])
	if rem > 0 {
		off++
	}
	return lo + off - 1
}
