package edgedrift_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"edgedrift"
)

// resultHasher is the streaming form of the golden fingerprint: the same
// per-Result hash as fingerprint() in golden_test.go, but feedable in
// segments so a demote/promote excursion can sit between them.
type resultHasher struct {
	h hash.Hash64
	b [8]byte
}

func newResultHasher() *resultHasher { return &resultHasher{h: fnv.New64a()} }

func (rh *resultHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(rh.b[:], v)
	rh.h.Write(rh.b[:])
}

func (rh *resultHasher) bit(v bool) {
	if v {
		rh.h.Write([]byte{1})
	} else {
		rh.h.Write([]byte{0})
	}
}

func (rh *resultHasher) result(r edgedrift.Result) {
	rh.u64(uint64(r.Label))
	rh.u64(math.Float64bits(r.Score))
	rh.u64(math.Float64bits(r.Dist))
	rh.u64(uint64(r.Phase))
	rh.bit(r.DriftDetected)
	rh.bit(r.Rejected)
}

func (rh *resultHasher) finish(mon *edgedrift.Monitor) string {
	for _, e := range mon.DriftEvents() {
		rh.u64(uint64(e))
	}
	rh.u64(uint64(mon.Reconstructions()))
	return fmt.Sprintf("%016x", rh.h.Sum64())
}

// TestDemotePromoteGoldenExact is the tentpole guarantee: a monitor that
// is demoted mid-stream, serves an excursion of samples at reduced
// precision, and is then promoted continues the ORIGINAL stream
// bit-identically — its full-stream fingerprint equals the golden
// fingerprint of a monitor that never degraded. The retained origin is
// frozen during the excursion (degraded-interval samples advance only
// the twin), which is exactly what makes the promotion exact.
func TestDemotePromoteGoldenExact(t *testing.T) {
	ds := goldenDataset()
	for _, target := range []edgedrift.Precision{edgedrift.Float32, edgedrift.Fixed16} {
		target := target
		t.Run(target.String(), func(t *testing.T) {
			t.Parallel()
			mon := goldenMonitor(t, edgedrift.GuardReject)
			if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
				t.Fatal(err)
			}
			rh := newResultHasher()
			const cut = 1500
			for _, x := range ds.TestX[:cut] {
				rh.result(mon.Process(x))
			}
			if err := mon.Demote(target); err != nil {
				t.Fatal(err)
			}
			if !mon.Degraded() || mon.ActivePrecision() != target {
				t.Fatalf("after Demote: degraded=%v active=%v", mon.Degraded(), mon.ActivePrecision())
			}
			// The excursion: 300 samples served at reduced precision. Their
			// results are real (labels in range) but deliberately NOT part of
			// the golden stream — they advance only the twin.
			for i, x := range ds.TestX[cut : cut+300] {
				r := mon.Process(x)
				if r.Label < 0 || r.Label > 1 {
					t.Fatalf("excursion sample %d: label %d out of range", i, r.Label)
				}
			}
			if err := mon.Promote(); err != nil {
				t.Fatal(err)
			}
			if mon.Degraded() || mon.ActivePrecision() != edgedrift.Float64 {
				t.Fatalf("after Promote: degraded=%v active=%v", mon.Degraded(), mon.ActivePrecision())
			}
			// The origin resumes the golden stream where it left off.
			for _, x := range ds.TestX[cut:] {
				rh.result(mon.Process(x))
			}
			if got := rh.finish(mon); got != goldenCleanFP {
				t.Errorf("post-promotion fingerprint %s, want golden %s — promotion is not bit-exact", got, goldenCleanFP)
			}
		})
	}
}

// TestDemoteLifecycleErrors pins every rejected transition: demoting
// unfitted or already-demoted monitors, promoting a non-demoted one, and
// the direction lattice (strictly down, never to f64).
func TestDemoteLifecycleErrors(t *testing.T) {
	ds := goldenDataset()
	unfit := goldenMonitor(t, edgedrift.GuardReject)
	if err := unfit.Demote(edgedrift.Float32); err == nil {
		t.Fatal("Demote before Fit succeeded")
	}
	mon := goldenMonitor(t, edgedrift.GuardReject)
	if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
		t.Fatal(err)
	}
	if err := mon.Promote(); err == nil {
		t.Fatal("Promote on a non-demoted monitor succeeded")
	}
	if err := mon.Demote(edgedrift.Float64); err == nil {
		t.Fatal("Demote to f64 succeeded")
	}
	if err := mon.Demote(edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if err := mon.Demote(edgedrift.Fixed16); err == nil {
		t.Fatal("double demotion succeeded")
	}
	if err := mon.Promote(); err != nil {
		t.Fatal(err)
	}

	// An f32-native monitor can only go down to q16.
	m32, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: len(ds.TrainX[0]), Hidden: 8, Window: 50, Seed: 3,
		Precision: edgedrift.Float32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m32.Fit(ds.TrainX, ds.TrainY); err != nil {
		t.Fatal(err)
	}
	if err := m32.Demote(edgedrift.Float32); err == nil {
		t.Fatal("f32 → f32 demotion succeeded")
	}
	if err := m32.Demote(edgedrift.Fixed16); err != nil {
		t.Fatalf("f32 → q16 demotion failed: %v", err)
	}
	if m32.ActivePrecision() != edgedrift.Fixed16 {
		t.Fatalf("active precision %v", m32.ActivePrecision())
	}
}

// TestDemotedMemoryAudit checks MemoryBytes counts origin + twin while
// demoted and falls back to the origin alone after promotion — the
// honest number for sizing a deployment's memory.
func TestDemotedMemoryAudit(t *testing.T) {
	ds := goldenDataset()
	mon := goldenMonitor(t, edgedrift.GuardReject)
	if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
		t.Fatal(err)
	}
	base := mon.MemoryBytes()
	if err := mon.Demote(edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	demoted := mon.MemoryBytes()
	if demoted <= base {
		t.Fatalf("demoted MemoryBytes %d not larger than origin alone %d (retained state must be counted)", demoted, base)
	}
	if err := mon.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := mon.MemoryBytes(); got != base {
		t.Fatalf("post-promotion MemoryBytes %d, want %d", got, base)
	}
}

// TestDemotedBatchMatchesPerSample: on a demoted monitor, ProcessBatch
// and per-sample Process must agree bit for bit through the twin too.
func TestDemotedBatchMatchesPerSample(t *testing.T) {
	ds := goldenDataset()
	for _, target := range []edgedrift.Precision{edgedrift.Float32, edgedrift.Fixed16} {
		target := target
		t.Run(target.String(), func(t *testing.T) {
			a := goldenMonitor(t, edgedrift.GuardReject)
			b := goldenMonitor(t, edgedrift.GuardReject)
			for _, m := range []*edgedrift.Monitor{a, b} {
				if err := m.Fit(ds.TrainX, ds.TrainY); err != nil {
					t.Fatal(err)
				}
				for _, x := range ds.TestX[:200] {
					m.Process(x)
				}
				if err := m.Demote(target); err != nil {
					t.Fatal(err)
				}
			}
			xs := ds.TestX[200:800]
			batched := a.ProcessBatch(nil, xs)
			for i, x := range xs {
				r := b.Process(x)
				if r != batched[i] {
					t.Fatalf("sample %d: batch %+v vs per-sample %+v", i, batched[i], r)
				}
			}
		})
	}
}
