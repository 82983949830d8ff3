package pool

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/rng"
)

const (
	testDims    = 4
	testClasses = 2
)

// sample draws one point of class c, optionally shifted (the drifted
// concept moves every class by +shift per dimension).
func sample(r *rng.Rand, c int, shift float64) []float64 {
	x := make([]float64, testDims)
	base := float64(c) * 5
	for j := range x {
		x[j] = r.Normal(base+shift, 0.3)
	}
	return x
}

// trainSet draws n alternating-class samples.
func trainSet(r *rng.Rand, n int, shift float64) ([][]float64, []int) {
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		labels[i] = i % testClasses
		xs[i] = sample(r, labels[i], shift)
	}
	return xs, labels
}

// testConfig keeps reconstruction short enough to cycle drifts in a
// test while leaving NRecon well past the pool's Window countdown.
func testConfig() core.Config {
	cfg := core.DefaultConfig(40)
	cfg.NRecon = 400
	cfg.NUpdate = 100
	return cfg
}

// newCalibrated builds a trained, calibrated detector over the two-blob
// concept.
func newCalibrated(t *testing.T, seed uint64, cfg core.Config) (*core.Detector, *rng.Rand) {
	t.Helper()
	m, err := model.New(model.Config{Classes: testClasses, Inputs: testDims, Hidden: 8, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed + 1000)
	xs, labels := trainSet(r, 400, 0)
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	d, err := core.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		t.Fatal(err)
	}
	return d, r
}

// newStage builds a pool stage over a calibrated detector.
func newStage(t *testing.T, seed uint64, cfg Config) (*Stage, *rng.Rand) {
	t.Helper()
	d, r := newCalibrated(t, seed, testConfig())
	p, err := NewStage(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// driveDrift feeds shifted samples until the detector fires, failing
// the test if it never does.
func driveDrift(t *testing.T, p *Stage, r *rng.Rand, shift float64) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if p.Process(sample(r, i%testClasses, shift)).DriftDetected {
			return
		}
	}
	t.Fatal("drift never detected")
}

func TestNewStageValidation(t *testing.T) {
	if _, err := NewStage(nil, Config{}); err == nil {
		t.Fatal("expected nil-detector error")
	}
	d, _ := newCalibrated(t, 10, testConfig())
	if _, err := NewStage(d, Config{Capacity: -1}); err == nil {
		t.Fatal("expected negative-capacity error")
	}
	if _, err := NewStage(d, Config{Margin: -0.5}); err == nil {
		t.Fatal("expected negative-margin error")
	}
	p, err := NewStage(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Capacity != 4 || p.cfg.Margin != 1.25 {
		t.Fatalf("defaults = %+v", p.cfg)
	}
}

func TestPoolCheckpointsOnDrift(t *testing.T) {
	p, r := newStage(t, 20, Config{})
	for i := 0; i < 100; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	if p.Len() != 0 {
		t.Fatalf("pool not empty before drift: %d", p.Len())
	}
	driveDrift(t, p, r, 6)
	if p.Len() != 1 {
		t.Fatalf("pool has %d entries after one drift", p.Len())
	}
	e := p.entries[0]
	if len(e.modelBlob) == 0 || len(e.detBlob) == 0 || e.thetaError <= 0 {
		t.Fatalf("degenerate checkpoint: model=%dB det=%dB θ=%v",
			len(e.modelBlob), len(e.detBlob), e.thetaError)
	}
	// The checkpoint must decode with the standard loaders.
	m, err := model.Load(bytes.NewReader(e.modelBlob))
	if err != nil {
		t.Fatalf("checkpointed model does not decode: %v", err)
	}
	if _, err := core.LoadState(bytes.NewReader(e.detBlob), m); err != nil {
		t.Fatalf("checkpointed detector state does not decode: %v", err)
	}
}

// TestPoolRestoreReoccurringBitExact is the tentpole acceptance test:
// when the pre-drift concept returns, the pool restores the checkpoint
// and the live detector then continues the stream bit-identically to a
// reference detector freshly loaded from the same checkpoint blobs.
func TestPoolRestoreReoccurringBitExact(t *testing.T) {
	p, r := newStage(t, 30, Config{})
	for i := 0; i < 100; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	driveDrift(t, p, r, 6)
	// Snapshot the checkpoint into an independent reference detector.
	e := p.entries[0]
	refModel, err := model.Load(bytes.NewReader(e.modelBlob))
	if err != nil {
		t.Fatal(err)
	}
	refDet, err := core.LoadState(bytes.NewReader(e.detBlob), refModel)
	if err != nil {
		t.Fatal(err)
	}
	// Reoccurring drift: the old concept comes straight back. After a
	// window of fresh samples the pool must match and restore.
	for i := 0; i < 200 && p.Restores() == 0; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	if p.Hits() != 1 || p.Restores() != 1 || p.misses != 0 {
		t.Fatalf("hits=%d misses=%d restores=%d, want 1/0/1",
			p.Hits(), p.misses, p.Restores())
	}
	if got := p.PhaseNow(); got != core.Monitoring {
		t.Fatalf("phase after restore = %v, want Monitoring", got)
	}
	// Bit-exact continuation: both detectors consume the identical
	// tail and must agree on every score and label to the last bit.
	tail, _ := trainSet(r, 300, 0)
	for i, x := range tail {
		a := p.Process(x)
		b := refDet.Process(x)
		if a.Score != b.Score || a.Label != b.Label || a.DriftDetected != b.DriftDetected {
			t.Fatalf("step %d diverged: restored (score=%v label=%d drift=%v) vs reference (score=%v label=%d drift=%v)",
				i, a.Score, a.Label, a.DriftDetected, b.Score, b.Label, b.DriftDetected)
		}
	}
}

// TestPoolMissOnNovelDrift: a drift to a genuinely new concept must not
// restore anything — the cold reconstruction runs to completion.
func TestPoolMissOnNovelDrift(t *testing.T) {
	p, r := newStage(t, 40, Config{})
	for i := 0; i < 100; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	driveDrift(t, p, r, 6)
	// Sudden drift: the shifted concept persists. The pooled concept-0
	// model cannot fit the post-drift window.
	for i := 0; i < 1000; i++ {
		p.Process(sample(r, i%testClasses, 6))
	}
	if p.misses != 1 || p.Restores() != 0 || p.Hits() != 0 {
		t.Fatalf("hits=%d misses=%d restores=%d, want 0/1/0",
			p.Hits(), p.misses, p.Restores())
	}
	// Cold adaptation still completes.
	if got := p.PhaseNow(); got != core.Monitoring {
		t.Fatalf("phase after cold reconstruction = %v, want Monitoring", got)
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p, r := newStage(t, 50, Config{Capacity: 2})
	for i := 0; i < 50; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	for k := 0; k < 3; k++ {
		p.checkpoint()
	}
	if p.Len() != 2 {
		t.Fatalf("pool holds %d entries, capacity 2", p.Len())
	}
	if p.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", p.evictions)
	}
}

func TestPoolHealthCounters(t *testing.T) {
	p, r := newStage(t, 60, Config{})
	for i := 0; i < 100; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	driveDrift(t, p, r, 6)
	for i := 0; i < 200 && p.Restores() == 0; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	s := p.Health()
	if s.PoolHits != p.Hits() || s.PoolMisses != p.misses ||
		s.PoolRestores != p.Restores() || s.PoolEvictions != p.evictions {
		t.Fatalf("health snapshot %+v does not carry pool counters (%d/%d/%d/%d)",
			s, p.Hits(), p.misses, p.Restores(), p.evictions)
	}
	if s.SamplesSeen == 0 {
		t.Fatal("health snapshot lost the detector's counters")
	}
	if p.MemoryBytes() <= p.Detector().MemoryBytes() {
		t.Fatal("MemoryBytes must audit pooled blobs on top of the detector")
	}
}

func TestPoolSaveLoadRoundTrip(t *testing.T) {
	p, r := newStage(t, 70, Config{})
	for i := 0; i < 50; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	p.checkpoint()
	for i := 0; i < 50; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	p.checkpoint()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, _ := newStage(t, 71, Config{})
	if err := q.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.Len() != p.Len() {
		t.Fatalf("loaded %d entries, want %d", q.Len(), p.Len())
	}
	for i := range p.entries {
		a, b := p.entries[i], q.entries[i]
		if a.thetaError != b.thetaError ||
			!bytes.Equal(a.modelBlob, b.modelBlob) ||
			!bytes.Equal(a.detBlob, b.detBlob) {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
}

// TestPoolLoadCorruption: every truncation and every byte flip of a
// valid POOL1 artifact must fail with an error wrapping ErrBadFormat,
// and must leave the stage's existing entries untouched.
func TestPoolLoadCorruption(t *testing.T) {
	p, r := newStage(t, 80, Config{})
	for i := 0; i < 50; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	p.checkpoint()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	q := &Stage{}
	if err := q.Load(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	want := q.Len()
	for n := 0; n < len(full); n++ {
		if err := q.Load(bytes.NewReader(full[:n])); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadFormat", n, err)
		}
		if q.Len() != want {
			t.Fatalf("truncation at %d mutated the stage", n)
		}
	}
	flipped := make([]byte, len(full))
	for i := range full {
		copy(flipped, full)
		flipped[i] ^= 0xFF
		if err := q.Load(bytes.NewReader(flipped)); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("byte flip at %d: err = %v, want ErrBadFormat", i, err)
		}
		if q.Len() != want {
			t.Fatalf("byte flip at %d mutated the stage", i)
		}
	}
}

// TestPoolSaveBytesPinned locks the POOL1 bytes for a one-entry pool to
// the SHA-256 recorded before the checkpoint framing moved into
// internal/ckpt (amd64 floating point, like the golden fingerprints).
func TestPoolSaveBytesPinned(t *testing.T) {
	p, r := newStage(t, 90, Config{})
	for i := 0; i < 50; i++ {
		p.Process(sample(r, i%testClasses, 0))
	}
	p.checkpoint()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "8b3b22ac50f7acf5f3e51b033f637023dff4af874ab26c98086cf8b869374980"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("POOL1 bytes drifted: sha256 %x, want %s", sum, want)
	}
}

func TestPoolLoadRejectsImplausibleCount(t *testing.T) {
	// Handcraft a header claiming 2^31 entries; must fail on the bound,
	// not attempt the allocation.
	var buf bytes.Buffer
	empty := &Stage{}
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[5], b[6], b[7], b[8] = 0, 0, 0, 0x80 // count u32 little-endian
	if err := empty.Load(bytes.NewReader(b)); !errors.Is(err, ckpt.ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// FuzzLoadPool: Load must never panic; any failure must classify as
// ErrBadFormat.
func FuzzLoadPool(f *testing.F) {
	var buf bytes.Buffer
	if err := (&Stage{}).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:3])
	f.Add([]byte("POOL1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Stage{}
		if err := p.Load(bytes.NewReader(data)); err != nil && !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("load error %v does not wrap ErrBadFormat", err)
		}
	})
}
