package oselm

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/rng"
)

func trainedModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{Inputs: 6, Hidden: 9, Outputs: 3, Ridge: 0.01}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		x := make([]float64, 6)
		r.FillNorm(x, 0, 1)
		tgt := []float64{x[0] + x[1], x[2] * 2, -x[3]}
		m.Train(x, tgt)
	}
	return m
}

func TestSaveLoadFloat64ExactRoundTrip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	n, err := m.Save(&buf, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SamplesSeen() != m.SamplesSeen() {
		t.Fatalf("SamplesSeen %d vs %d", got.SamplesSeen(), m.SamplesSeen())
	}
	if d := maxAbsDiff(got.Beta(), m.Beta()); d != 0 {
		t.Fatalf("β differs by %v after exact round trip", d)
	}
	// Predictions must be bit-identical.
	x := []float64{1, -1, 0.5, 2, -0.25, 0}
	a := m.Predict(nil, x)
	b := got.Predict(nil, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Continued training must behave identically.
	m.Train(x, []float64{0, 0, 0})
	got.Train(x, []float64{0, 0, 0})
	if d := maxAbsDiff(got.Beta(), m.Beta()); d != 0 {
		t.Fatalf("post-load training diverged by %v", d)
	}
}

func TestSaveLoadFloat32Lossy(t *testing.T) {
	m := trainedModel(t)
	var b64, b32 bytes.Buffer
	if _, err := m.Save(&b64, Float64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(&b32, Float32); err != nil {
		t.Fatal(err)
	}
	// Float32 artifact is roughly half the size (headers aside).
	if b32.Len() >= b64.Len()*3/4 {
		t.Fatalf("float32 artifact %d not clearly smaller than %d", b32.Len(), b64.Len())
	}
	got, err := Load(&b32)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 0.5, 2, -0.25, 0}
	a := m.Predict(nil, x)
	b := got.Predict(nil, x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-4*(1+math.Abs(a[i])) {
			t.Fatalf("float32 prediction error too large at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model at all"))); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty stream")
	}
	// Valid magic, bad precision byte.
	bad := append([]byte("OSELM3"), 99, 0)
	if _, err := Load(bytes.NewReader(bad)); err != ckpt.ErrBadFormat {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

func TestAutoencoderSaveLoad(t *testing.T) {
	ae, err := NewAutoencoder(Config{Inputs: 5, Hidden: 3}, L1Mean, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		x := make([]float64, 5)
		r.FillNorm(x, 0, 1)
		ae.Train(x)
	}
	var buf bytes.Buffer
	if _, err := ae.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAutoencoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	if a, b := ae.Score(x), got.Score(x); a != b {
		t.Fatalf("scores differ: %v vs %v", a, b)
	}
}

func TestLoadAutoencoderRejectsNonAutoencoder(t *testing.T) {
	m := trainedModel(t) // Inputs 6 ≠ Outputs 3
	var buf bytes.Buffer
	// Fake the autoencoder wrapper: metric word + model.
	if err := ckpt.PutU32(&buf, uint32(MSE)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(&buf, Float64); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAutoencoder(&buf); err == nil {
		t.Fatal("expected non-autoencoder rejection")
	}
}

// TestLoadHugeHeaderAllocatesLittle: a header claiming an 8192×8192×8192
// model — within the per-dimension and per-matrix bounds, but 1.5 GB of
// float64 slabs — followed by a few bytes must fail as ErrBadFormat
// without committing more than a sliver of what it claimed: slabs grow
// only as their bytes arrive.
func TestLoadHugeHeaderAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	cw, err := ckpt.Create(&buf, magic)
	if err == nil {
		_, err = cw.Write([]byte{byte(Float64), byte(Float64)})
	}
	if err == nil {
		err = ckpt.PutU32(cw, 8192, 8192, 8192, uint32(Sigmoid), 0)
	}
	if err == nil {
		err = ckpt.PutF64(cw, 1, 1e-3, 1, 0.5, 0.25)
	}
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ckpt.ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Fatalf("loading a %d-byte artifact allocated %d bytes, want < 64 MiB", len(data), got)
	}
}
