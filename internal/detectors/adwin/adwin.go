// Package adwin implements ADaptive WINdowing (Bifet & Gavaldà, SDM
// 2007), the adaptive-window error-rate detector from the paper's related
// work (§2.2.2).
//
// ADWIN maintains a variable-length window over a bounded scalar stream
// (here: prediction errors in [0,1]) in exponential-histogram buckets,
// using O(log W) memory. Whenever the means of some split of the window
// into "old" and "new" halves differ by more than a Hoeffding-style bound
// ε_cut(δ), the old half is dropped and a change is reported.
package adwin

import (
	"fmt"
	"math"
)

// bucketRow holds up to maxBuckets buckets that each summarise 2^level
// observations.
type bucketRow struct {
	sums   []float64
	counts []int // observation count per bucket (all equal 2^level)
}

// Config parameterises ADWIN.
type Config struct {
	// Delta is the confidence parameter δ of the cut test; 0 means 0.002
	// (the authors' default).
	Delta float64
	// MaxBucketsPerRow is M; 0 means 5.
	MaxBucketsPerRow int
	// MinWindow suppresses cuts while the window holds fewer
	// observations; 0 means 10.
	MinWindow int
	// CheckEvery tests for cuts only every k-th observation (a standard
	// constant-factor optimisation); 0 means 1 (every observation).
	CheckEvery int
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta == 0 {
		c.Delta = 0.002
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return c, fmt.Errorf("adwin: delta %v out of (0,1)", c.Delta)
	}
	if c.MaxBucketsPerRow == 0 {
		c.MaxBucketsPerRow = 5
	}
	if c.MaxBucketsPerRow < 2 {
		return c, fmt.Errorf("adwin: need ≥ 2 buckets per row")
	}
	if c.MinWindow == 0 {
		c.MinWindow = 10
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 1
	}
	return c, nil
}

// Detector is an ADWIN instance. Not safe for concurrent use.
type Detector struct {
	cfg   Config
	rows  []bucketRow
	total int
	sum   float64
	seen  int
	cuts  int
}

// New returns a fresh detector.
func New(cfg Config) (*Detector, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: c}, nil
}

// Observe folds x (must lie in [0,1], e.g. 0 = correct, 1 = error) into
// the window and reports whether a change was detected (old data
// dropped).
func (d *Detector) Observe(x float64) bool {
	if x < 0 || x > 1 {
		panic(fmt.Sprintf("adwin: observation %v outside [0,1]", x))
	}
	d.insert(x)
	d.seen++
	if d.seen%d.cfg.CheckEvery != 0 {
		return false
	}
	return d.tryCut()
}

// insert places x as a fresh level-0 bucket and compresses rows that
// overflow by merging their two oldest buckets into the next level.
func (d *Detector) insert(x float64) {
	if len(d.rows) == 0 {
		d.rows = append(d.rows, bucketRow{})
	}
	r0 := &d.rows[0]
	r0.sums = append(r0.sums, x)
	r0.counts = append(r0.counts, 1)
	d.total++
	d.sum += x
	for level := 0; level < len(d.rows); level++ {
		row := &d.rows[level]
		if len(row.sums) <= d.cfg.MaxBucketsPerRow {
			break
		}
		// Merge the two oldest buckets (front of the slice) upward.
		mergedSum := row.sums[0] + row.sums[1]
		mergedCount := row.counts[0] + row.counts[1]
		row.sums = row.sums[2:]
		row.counts = row.counts[2:]
		if level+1 == len(d.rows) {
			d.rows = append(d.rows, bucketRow{})
		}
		next := &d.rows[level+1]
		next.sums = append(next.sums, mergedSum)
		next.counts = append(next.counts, mergedCount)
	}
}

// tryCut scans split points from oldest to newest and drops the oldest
// buckets while any split violates the bound. Returns true if anything
// was dropped.
func (d *Detector) tryCut() bool {
	if d.total < d.cfg.MinWindow {
		return false
	}
	cut := false
	for {
		if !d.cutOnce() {
			return cut
		}
		cut = true
		d.cuts++
	}
}

// cutOnce looks for the first violating split (scanning from the oldest
// bucket) and, if found, drops everything older than it.
func (d *Detector) cutOnce() bool {
	if d.total < d.cfg.MinWindow {
		return false
	}
	// Walk buckets from oldest (highest level, front) to newest.
	var n0 int
	var s0 float64
	n1, s1 := d.total, d.sum
	for level := len(d.rows) - 1; level >= 0; level-- {
		row := &d.rows[level]
		for b := 0; b < len(row.sums); b++ {
			n0 += row.counts[b]
			s0 += row.sums[b]
			n1 -= row.counts[b]
			s1 -= row.sums[b]
			if n0 < 1 || n1 < 1 {
				continue
			}
			if d.violates(n0, s0, n1, s1) {
				d.dropOldest(level, b)
				return true
			}
		}
	}
	return false
}

// violates applies the ADWIN cut condition |μ̂0 − μ̂1| ≥ ε_cut.
func (d *Detector) violates(n0 int, s0 float64, n1 int, s1 float64) bool {
	mu0 := s0 / float64(n0)
	mu1 := s1 / float64(n1)
	m := 1 / (1/float64(n0) + 1/float64(n1)) // harmonic mean /2 of sizes
	deltaPrime := d.cfg.Delta / float64(d.total)
	// Variance-aware bound from the ADWIN paper (eq. for ε_cut using the
	// window's observed variance).
	mean := d.sum / float64(d.total)
	variance := math.Max(0, d.windowVariance(mean))
	lnTerm := math.Log(2 / deltaPrime)
	eps := math.Sqrt(2/m*variance*lnTerm) + 2.0/(3.0*m)*lnTerm
	return math.Abs(mu0-mu1) >= eps
}

// windowVariance approximates the window variance from bucket summaries;
// with 0/1 observations (the error-stream use) mean(1−mean) is exact.
func (d *Detector) windowVariance(mean float64) float64 {
	return mean * (1 - mean)
}

// dropOldest removes every bucket strictly older than position (level, b)
// inclusive — i.e. the scanned prefix.
func (d *Detector) dropOldest(level, b int) {
	for l := len(d.rows) - 1; l > level; l-- {
		row := &d.rows[l]
		for i := range row.sums {
			d.total -= row.counts[i]
			d.sum -= row.sums[i]
		}
		row.sums = nil
		row.counts = nil
	}
	row := &d.rows[level]
	for i := 0; i <= b && i < len(row.sums); i++ {
		d.total -= row.counts[i]
		d.sum -= row.sums[i]
	}
	row.sums = append([]float64(nil), row.sums[min(b+1, len(row.sums)):]...)
	row.counts = append([]int(nil), row.counts[min(b+1, len(row.counts)):]...)
	// Trim empty high rows.
	for len(d.rows) > 1 {
		last := &d.rows[len(d.rows)-1]
		if len(last.sums) != 0 {
			break
		}
		d.rows = d.rows[:len(d.rows)-1]
	}
}

// Mean returns the current window mean (0 when empty).
func (d *Detector) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return d.sum / float64(d.total)
}

// MemoryBytes audits retained state: O(M · log W) bucket summaries.
func (d *Detector) MemoryBytes() int {
	bytes := 4 * 8 // scalars
	for _, r := range d.rows {
		bytes += 16 * len(r.sums)
	}
	return bytes
}
