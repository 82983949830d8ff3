package edgedrift

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// poisonStream returns a copy of xs with non-finite features planted in
// every stride-th sample, plus the clean subset with those samples
// removed.
func poisonStream(xs [][]float64, stride int) (poisoned, filtered [][]float64) {
	for i, x := range xs {
		if i%stride == stride-1 {
			bad := append([]float64(nil), x...)
			if i%(2*stride) == stride-1 {
				bad[i%len(bad)] = math.NaN()
			} else {
				bad[0] = math.Inf(-1)
			}
			poisoned = append(poisoned, bad)
			continue
		}
		poisoned = append(poisoned, x)
		filtered = append(filtered, x)
	}
	return poisoned, filtered
}

// TestMonitorPoisonedStreamMatchesFiltered is the acceptance test at the
// public API: a NaN/Inf-interleaved stream under the default Reject
// policy produces bit-identical drift events and behaviour to the same
// stream with the poisoned samples removed.
func TestMonitorPoisonedStreamMatchesFiltered(t *testing.T) {
	dirty, stream := newFit(t, defaultOpts(), 31)
	clean, _ := newFit(t, defaultOpts(), 31)
	poisoned, filtered := poisonStream(stream.X, 41)

	for _, x := range poisoned {
		r := dirty.Process(x)
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			t.Fatalf("public API returned non-finite score: %+v", r)
		}
	}
	for _, x := range filtered {
		clean.Process(x)
	}

	de, ce := dirty.DriftEvents(), clean.DriftEvents()
	if len(de) == 0 {
		t.Fatal("no drift detected")
	}
	if len(de) != len(ce) {
		t.Fatalf("drift events %v vs %v", de, ce)
	}
	for i := range de {
		if de[i] != ce[i] {
			t.Fatalf("drift event %d: %d vs %d", i, de[i], ce[i])
		}
	}
	h := dirty.Health()
	if got, want := h.Rejected, uint64(len(poisoned)-len(filtered)); got != want {
		t.Fatalf("Rejected = %d, want %d", got, want)
	}
	if !h.Healthy() {
		t.Fatalf("monitor unhealthy after guarded stream: %+v", h)
	}
}

func TestMonitorGuardClampOption(t *testing.T) {
	opts := defaultOpts()
	opts.Guard = GuardClamp
	mon, stream := newFit(t, opts, 32)
	bad := append([]float64(nil), stream.X[0]...)
	bad[1] = math.Inf(1)
	r := mon.Process(bad)
	if r.Rejected {
		t.Fatal("clamp policy rejected")
	}
	if got := mon.Health().Clamped; got != 1 {
		t.Fatalf("Clamped = %d, want 1", got)
	}
}

func TestMonitorTrainDuringMonitorSkipsBadSamples(t *testing.T) {
	opts := defaultOpts()
	opts.TrainDuringMonitor = true
	mon, stream := newFit(t, opts, 33)
	for i := 0; i < 100; i++ {
		mon.Process(stream.X[i])
	}
	bad := []float64{math.NaN(), math.NaN(), math.NaN()}
	for i := 0; i < 50; i++ {
		mon.Process(bad)
	}
	h := mon.Health()
	if h.Rejected != 50 {
		t.Fatalf("Rejected = %d, want 50", h.Rejected)
	}
	if !h.PFinite {
		t.Fatalf("model state poisoned through TrainDuringMonitor: %+v", h)
	}
	// And the monitor still predicts finite scores.
	if _, score := mon.Predict(stream.X[0]); math.IsNaN(score) {
		t.Fatal("NaN score after bad-sample burst")
	}
}

func TestFitRejectsNonFiniteSamples(t *testing.T) {
	trainX, trainY, _ := scenario(34)
	trainX[5] = []float64{1, math.NaN(), 2}
	mon, err := New(defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err == nil {
		t.Fatal("Fit accepted a non-finite training sample")
	}
}

func savedMonitor(t *testing.T, seed uint64) (*Monitor, []byte) {
	t.Helper()
	mon, stream := newFit(t, defaultOpts(), seed)
	for i := 0; i < 100; i++ {
		mon.Process(stream.X[i])
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	return mon, buf.Bytes()
}

func TestLoadMonitorRejectsEveryFlippedByte(t *testing.T) {
	_, full := savedMonitor(t, 35)
	// Stride over a handful of offsets per region plus every byte of the
	// headers; checking all ~10k offsets individually is covered at the
	// package level, so sample here to keep the suite fast.
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x08
		_, err := LoadMonitor(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte %d/%d loaded successfully", i, len(full))
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("flipped byte %d/%d: err = %v, want ErrBadFormat", i, len(full), err)
		}
	}
}

func TestLoadMonitorRejectsEveryTruncation(t *testing.T) {
	_, full := savedMonitor(t, 36)
	for n := 0; n < len(full); n++ {
		if _, err := LoadMonitor(bytes.NewReader(full[:n])); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrBadFormat", n, len(full), err)
		}
	}
}

// TestSaveLoadContinuesAcrossReconstruction locks the full round-trip
// contract: a loaded monitor must stay bit-identical to the original
// through a drift detection AND the reconstruction that follows. The
// pre-v3 detector format dropped the calibrated θ_error pin, so the
// loaded copy re-derived its threshold after reconstruction while the
// original held the pin — a silent divergence exactly this deep into
// the stream.
func TestSaveLoadContinuesAcrossReconstruction(t *testing.T) {
	mon, stream := newFit(t, defaultOpts(), 42)
	for i := 0; i < 500; i++ {
		mon.Process(stream.X[i])
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i < len(stream.X); i++ {
		a, b := mon.Process(stream.X[i]), got.Process(stream.X[i])
		if a != b {
			t.Fatalf("loaded monitor diverges at sample %d: %+v vs %+v", i, a, b)
		}
	}
	if mon.Reconstructions() == 0 {
		t.Fatal("stream never triggered a reconstruction; the test lost its teeth")
	}
	te1, td1 := mon.Thresholds()
	te2, td2 := got.Thresholds()
	if te1 != te2 || td1 != td2 {
		t.Fatalf("post-reconstruction thresholds (%v,%v) vs (%v,%v)", te1, td1, te2, td2)
	}
}

func TestSaveFileLoadMonitorFileRoundTrip(t *testing.T) {
	mon, _ := savedMonitor(t, 38)
	path := filepath.Join(t.TempDir(), "monitor.ed")
	if err := mon.SaveFile(path, Float64); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMonitorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	te1, td1 := mon.Thresholds()
	te2, td2 := got.Thresholds()
	if te1 != te2 || td1 != td2 {
		t.Fatalf("thresholds (%v,%v) vs (%v,%v)", te1, td1, te2, td2)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the artifact", len(entries))
	}
	// Overwriting an existing artifact also works (rename over).
	if err := mon.SaveFile(path, Float32); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMonitorFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMonitorFileCorruptMatchesErrBadFormat(t *testing.T) {
	mon, _ := savedMonitor(t, 39)
	path := filepath.Join(t.TempDir(), "monitor.ed")
	if err := mon.SaveFile(path, Float64); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMonitorFile(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// fuzzArtifact returns the monitor artifact FuzzLoadMonitor starts from,
// and a copy whose model header claims 1<<20 classes, the most a
// header may claim, while carrying the artifact's two.
func fuzzArtifact(tb testing.TB) (full, forged []byte) {
	tb.Helper()
	mon, err := New(Options{Classes: 2, Inputs: 3, Hidden: 4, Window: 20, Seed: 1, NRecon: 100})
	if err != nil {
		tb.Fatal(err)
	}
	trainX, trainY, _ := scenario(40)
	if err := mon.Fit(trainX, trainY); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, Float32); err != nil {
		tb.Fatal(err)
	}
	full = buf.Bytes()
	forged = append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(forged[len("MULTI2"):], 1<<20)
	return full, forged
}

// TestLoadMonitorForgedClassCount pins that a forged class count fails
// as ErrBadFormat having allocated for the instances the stream
// carried, not the 16 MiB of instance and score slots its count
// claims.
func TestLoadMonitorForgedClassCount(t *testing.T) {
	_, forged := fuzzArtifact(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadMonitor(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("forged class count allocated %d bytes", n)
	}
}

func FuzzLoadMonitor(f *testing.F) {
	full, forged := fuzzArtifact(f)
	f.Add(full)
	f.Add(full[:len(full)/3])
	f.Add(forged)
	f.Add([]byte("MULTI2"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMonitor(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil monitor with nil error")
		}
	})
}
