package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-range, equal-width histogram of a scalar stream.
// Samples outside [Lo, Hi) are clamped into the edge bins so no finite
// observation is silently dropped; non-finite observations (NaN, ±Inf)
// cannot be binned and are counted separately (see Dropped) so the loss
// is visible instead of silently polluting an edge bin.
type Histogram struct {
	Lo, Hi  float64
	counts  []int
	total   int
	dropped uint64
}

// NewHistogram returns a histogram with bins equal-width bins over
// [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(lo < hi) {
		panic(fmt.Sprintf("stats: invalid histogram range [%v,%v)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int, bins)}
}

// Observe adds x to the histogram. NaN and ±Inf cannot be assigned a
// meaningful bin (and the float→int bin conversion is implementation-
// defined for them); they are tallied in the dropped counter instead of
// a bin so downstream distribution statistics stay valid while the data
// loss stays visible.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		h.dropped++
		return
	}
	idx := h.binOf(x)
	h.counts[idx]++
	h.total++
}

func (h *Histogram) binOf(x float64) int {
	f := (x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.counts))
	idx := int(math.Floor(f))
	if idx < 0 {
		return 0
	}
	if idx >= len(h.counts) {
		return len(h.counts) - 1
	}
	return idx
}

// Counts returns a copy of the bin counts.
func (h *Histogram) Counts() []int {
	c := make([]int, len(h.counts))
	copy(c, h.counts)
	return c
}

// Total returns the number of binned observations (NaNs excluded).
func (h *Histogram) Total() int { return h.total }

// Dropped returns how many non-finite observations could not be binned —
// the silent-data-loss counter surfaced by the health snapshot.
func (h *Histogram) Dropped() uint64 { return h.dropped }

// Reset zeroes all counts, including the dropped-NaN counter.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.dropped = 0
}
