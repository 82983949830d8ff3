package fixed

import (
	"math"
	"slices"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// batchTrace builds a float sample sequence that covers every monitor
// regime: stationary monitoring, an open check window, a drift
// detection, and the pending phase after it.
func batchTrace(r *rng.Rand, n int) [][]float64 {
	xs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		shift := 0.0
		if i >= n/3 {
			shift = 4 // drifted regime for the back two-thirds
		}
		xs = append(xs, monSample(r, i%monClasses, shift))
	}
	return xs
}

// TestMonitorProcessBatchMatchesProcess pins the batch contract: at
// every chunking, ProcessBatch yields the same results, op tallies,
// detection log and health as one Process call per sample.
func TestMonitorProcessBatchMatchesProcess(t *testing.T) {
	det, r := calibratedFloatDetector(t, 11)
	xs := batchTrace(r, 700)
	for _, bs := range []int{1, 3, 63, 64, 65, 130, 700} {
		seq := QuantizeDetector(det)
		bat := QuantizeDetector(det)
		var seqOps, batOps opcount.Counter
		seq.SetOps(&seqOps)
		bat.SetOps(&batOps)

		want := make([]core.Result, 0, len(xs))
		for _, x := range xs {
			want = append(want, seq.Process(x))
		}
		got := make([]core.Result, 0, len(xs))
		for start := 0; start < len(xs); start += bs {
			got = bat.ProcessBatch(got, xs[start:min(start+bs, len(xs))])
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d results, want %d", bs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bs=%d sample %d: got %+v want %+v", bs, i, got[i], want[i])
			}
		}
		if seqOps != batOps {
			t.Fatalf("bs=%d: op counters diverge: seq %+v bat %+v", bs, seqOps, batOps)
		}
		if se, be := seq.Events(), bat.Events(); len(se) != 1 || !slices.Equal(se, be) {
			t.Fatalf("bs=%d: events %v vs %v, want one detection", bs, be, se)
		}
		if seq.Health() != bat.Health() {
			t.Fatalf("bs=%d: health diverges: %+v vs %+v", bs, bat.Health(), seq.Health())
		}
	}
}

// TestStreamProcessBatchMatchesProcess drives the Monitor through the
// core.BatchStreaming stream interface, the way a pipeline or fleet
// shard holds it: batched and per-sample float input agree bit for bit
// on every result field and on health. There are no clears, so the
// trace covers monitoring, checking and the pending regime.
func TestStreamProcessBatchMatchesProcess(t *testing.T) {
	det, r := calibratedFloatDetector(t, 12)
	xs := batchTrace(r, 500)
	for _, bs := range []int{1, 5, 64, 65, 130} {
		var seq, bat core.BatchStreaming = QuantizeDetector(det), QuantizeDetector(det)

		want := make([]core.Result, 0, len(xs))
		for _, x := range xs {
			want = append(want, seq.Process(x))
		}
		got := make([]core.Result, 0, len(xs))
		for start := 0; start < len(xs); start += bs {
			got = bat.ProcessBatch(got, xs[start:min(start+bs, len(xs))])
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d results, want %d", bs, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Label != w.Label || g.Phase != w.Phase ||
				g.DriftDetected != w.DriftDetected || g.Rejected != w.Rejected ||
				math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("bs=%d sample %d: got %+v want %+v", bs, i, g, w)
			}
		}
		if seq.Health() != bat.Health() {
			t.Fatalf("bs=%d: health diverges: %+v vs %+v", bs, bat.Health(), seq.Health())
		}
	}
}

func TestMonitorProcessBatchZeroAllocs(t *testing.T) {
	det, r := calibratedFloatDetector(t, 13)
	mon := QuantizeDetector(det)
	xs := batchTrace(r, 96)
	dst := make([]core.Result, 0, len(xs))
	// Prime the lazy batch buffers.
	dst = mon.ProcessBatch(dst, xs)
	allocs := testing.AllocsPerRun(100, func() {
		dst = mon.ProcessBatch(dst[:0], xs)
	})
	if allocs != 0 {
		t.Fatalf("ProcessBatch allocates %v per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		mon.Process(xs[0])
	})
	if allocs != 0 {
		t.Fatalf("Process allocates %v per call, want 0", allocs)
	}
}

// TestStreamProcessBatchZeroAllocs pins the steady-state batch path as
// reached through the core.BatchStreaming interface: no allocation per
// call once the staging buffers are primed.
func TestStreamProcessBatchZeroAllocs(t *testing.T) {
	det, r := calibratedFloatDetector(t, 14)
	var s core.BatchStreaming = QuantizeDetector(det)
	xs := batchTrace(r, 96)
	dst := make([]core.Result, 0, len(xs))
	dst = s.ProcessBatch(dst, xs)
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.ProcessBatch(dst[:0], xs)
	})
	if allocs != 0 {
		t.Fatalf("stream ProcessBatch allocates %v per call, want 0", allocs)
	}
}

func TestMonitorBatchMemoryAccounted(t *testing.T) {
	det, r := calibratedFloatDetector(t, 15)
	mon := QuantizeDetector(det)
	before := mon.MemoryBytes()
	mon.ProcessBatch(nil, batchTrace(r, 8))
	after := mon.MemoryBytes()
	// The quantise rows alone are batchChunk × dims words.
	if after-before < 4*batchChunk*monDims {
		t.Fatalf("batch staging not audited: %d -> %d", before, after)
	}
}

// TestMonitorProcessBatchPanicsOnBadDims pins the width check on the
// batched path: a short or long sample anywhere in the batch panics
// before any sample is consumed.
func TestMonitorProcessBatchPanicsOnBadDims(t *testing.T) {
	det, r := calibratedFloatDetector(t, 16)
	for _, width := range []int{monDims - 1, monDims + 1} {
		mon := QuantizeDetector(det)
		xs := [][]float64{monSample(r, 0, 0), make([]float64, width)}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d: expected panic", width)
				}
			}()
			mon.ProcessBatch(nil, xs)
		}()
		if h := mon.Health(); h.SamplesSeen != 0 {
			t.Fatalf("width %d: %d samples consumed before the panic", width, h.SamplesSeen)
		}
	}
}
