package edgedrift_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"edgedrift"
)

// fingerprintBatched is fingerprint with the stream driven through
// ProcessBatch in fixed-size chunks instead of per-sample Process calls.
// The two must hash identically.
func fingerprintBatched(mon *edgedrift.Monitor, xs [][]float64, bs int) string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	bit := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	dst := make([]edgedrift.Result, 0, bs)
	for lo := 0; lo < len(xs); lo += bs {
		hi := lo + bs
		if hi > len(xs) {
			hi = len(xs)
		}
		dst = mon.ProcessBatch(dst[:0], xs[lo:hi])
		for _, r := range dst {
			u64(uint64(r.Label))
			u64(math.Float64bits(r.Score))
			u64(math.Float64bits(r.Dist))
			u64(uint64(r.Phase))
			bit(r.DriftDetected)
			bit(r.Rejected)
		}
	}
	for _, e := range mon.DriftEvents() {
		u64(uint64(e))
	}
	u64(uint64(mon.Reconstructions()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenStreamBatched replays the golden NSL-KDD cases through
// ProcessBatch at several chunk sizes: the fingerprints must equal the
// per-sample golden constants bit for bit — across drift detections,
// full reconstructions, and (in the poisoned cases) guard rejections
// and clamps splitting the batch mid-chunk.
func TestGoldenStreamBatched(t *testing.T) {
	ds := goldenDataset()
	cases := []struct {
		name  string
		guard edgedrift.GuardPolicy
		xs    [][]float64
		want  string
	}{
		{"clean/reject", edgedrift.GuardReject, ds.TestX, goldenCleanFP},
		{"poisoned/reject", edgedrift.GuardReject, poison(ds.TestX), goldenPoisonedFP},
		{"poisoned/clamp", edgedrift.GuardClamp, poison(ds.TestX), goldenClampFP},
	}
	for _, tc := range cases {
		for _, bs := range []int{1, 37, 64, 256} {
			tc, bs := tc, bs
			t.Run(fmt.Sprintf("%s/bs=%d", tc.name, bs), func(t *testing.T) {
				t.Parallel()
				mon := goldenMonitor(t, tc.guard)
				if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
					t.Fatal(err)
				}
				if got := fingerprintBatched(mon, tc.xs, bs); got != tc.want {
					t.Errorf("batched fingerprint drifted: got %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// TestProcessBatchMatchesProcessFloat32 pins the same equivalence on the
// float32 backend: the result streams are bit-identical (not merely
// within tolerance) regardless of SIMD availability.
func TestProcessBatchMatchesProcessFloat32(t *testing.T) {
	fx := newFleetFixture(t)
	for _, p := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Float32} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			seq := precisionMonitor(t, fx, p)
			bat := precisionMonitor(t, fx, p)
			var want []edgedrift.Result
			for _, x := range fx.stream {
				want = append(want, seq.Process(x))
			}
			var got []edgedrift.Result
			for lo := 0; lo < len(fx.stream); lo += 129 {
				hi := lo + 129
				if hi > len(fx.stream) {
					hi = len(fx.stream)
				}
				got = bat.ProcessBatch(got, fx.stream[lo:hi])
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("sample %d diverged: %+v vs %+v", i, got[i], want[i])
					}
				}
			}
			if !reflect.DeepEqual(seq.DriftEvents(), bat.DriftEvents()) {
				t.Fatalf("drift events diverged: %v vs %v", bat.DriftEvents(), seq.DriftEvents())
			}
		})
	}
}

// TestMonitorProcessBatchZeroAllocs pins the end-to-end batch path —
// guard, detector, model, backend — at zero allocations per call, for
// both float backends.
func TestMonitorProcessBatchZeroAllocs(t *testing.T) {
	fx := newFleetFixture(t)
	for _, p := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Float32} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			mon := precisionMonitor(t, fx, p)
			xs := fx.stream[:96] // stationary prefix: no drift, no rebuild
			dst := make([]edgedrift.Result, 0, len(xs))
			allocs := testing.AllocsPerRun(100, func() {
				dst = mon.ProcessBatch(dst[:0], xs)
			})
			if allocs != 0 {
				t.Fatalf("ProcessBatch allocates %v per call, want 0", allocs)
			}
		})
	}
}

func TestProcessBatchPanicsBeforeFit(t *testing.T) {
	mon, err := edgedrift.New(edgedrift.Options{Classes: 2, Inputs: 3, Hidden: 4, Window: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mon.ProcessBatch(nil, [][]float64{{1, 2, 3}})
}

// TestProcessBatchRejectsShortSampleAtomically pins that ProcessBatch is
// all-or-nothing on sample width: a batch whose last sample is short
// panics before any sample advances the monitor, so the monitor goes on
// bit-identically to a twin that never saw the batch.
func TestProcessBatchRejectsShortSampleAtomically(t *testing.T) {
	fx := newFleetFixture(t)
	mon, twin := fx.monitor(t, 1), fx.monitor(t, 1)
	const at = 990 // just ahead of the drift at 1000
	for _, x := range fx.stream[:at] {
		mon.Process(x)
		twin.Process(x)
	}
	bad := append(append([][]float64(nil), fx.stream[at:at+7]...), []float64{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ProcessBatch accepted a batch with a short sample")
			}
		}()
		mon.ProcessBatch(nil, bad)
	}()
	for i, x := range fx.stream[at:1500] {
		if got, want := mon.Process(x), twin.Process(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("sample %d after the rejected batch: %+v, twin %+v", at+i, got, want)
		}
	}
	if !reflect.DeepEqual(mon.DriftEvents(), twin.DriftEvents()) {
		t.Fatalf("drift events %v, twin %v", mon.DriftEvents(), twin.DriftEvents())
	}
}

// TestProcessBatchTrainDuringMonitorFallback: with on-line training
// enabled the model mutates between samples, and ProcessBatch must
// behave exactly like per-sample Process calls (which train).
func TestProcessBatchTrainDuringMonitorFallback(t *testing.T) {
	fx := newFleetFixture(t)
	build := func() *edgedrift.Monitor {
		mon, err := edgedrift.New(edgedrift.Options{
			Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 1,
			TrainDuringMonitor: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Fit(fx.trainX, fx.trainY); err != nil {
			t.Fatal(err)
		}
		return mon
	}
	seq, bat := build(), build()
	stream := fx.stream[:600]
	var want []edgedrift.Result
	for _, x := range stream {
		want = append(want, seq.Process(x))
	}
	got := bat.ProcessBatch(nil, stream)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("TrainDuringMonitor batch diverged from per-sample stream")
	}
}

// TestProcessBatchKeepsNoScratch: ProcessBatch scores through the same
// per-sample path as Process, so a fitted monitor's audit is the same
// before and after its first batch.
func TestProcessBatchKeepsNoScratch(t *testing.T) {
	fx := newFleetFixture(t)
	for _, p := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Float32} {
		mon := precisionMonitor(t, fx, p)
		before := mon.MemoryBytes()
		mon.ProcessBatch(nil, fx.stream[:96])
		if after := mon.MemoryBytes(); after != before {
			t.Fatalf("%v: MemoryBytes %d after the first ProcessBatch, want %d", p, after, before)
		}
	}
}
