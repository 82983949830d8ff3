package oselm

import (
	"testing"

	"edgedrift/internal/rng"
)

// TestShareProjection: models drawn from one seed share one projection,
// bit for bit, and stop counting it; a model with other bits refuses
// it; the float32 backend has none to share.
func TestShareProjection(t *testing.T) {
	cfg := Config{Inputs: 10, Hidden: 4, Outputs: 10}
	owner, _ := New(cfg, rng.New(3))
	same, _ := New(cfg, rng.New(3))
	other, _ := New(cfg, rng.New(4))
	p := owner.Projection()
	before := same.MemoryBytes()
	if !same.ShareProjection(p) {
		t.Fatal("same-seed model refused an identical projection")
	}
	if same.w != owner.w || &same.bias[0] != &owner.bias[0] {
		t.Fatal("ShareProjection did not rebind to the shared slabs")
	}
	if got, want := before-same.MemoryBytes(), p.Bytes(); got != want {
		t.Fatalf("sharing saved %d bytes, want %d", got, want)
	}
	if other.ShareProjection(p) {
		t.Fatal("a model with different bits accepted the projection")
	}
	f32, _ := New(Config{Inputs: 10, Hidden: 4, Outputs: 10, Precision: Float32}, rng.New(3))
	if f32.Projection() != nil || f32.ShareProjection(p) {
		t.Fatal("float32 backend must neither expose nor share a float64 projection")
	}
}

// TestAdoptStateRebindsProjection: adoption never writes through a
// shared projection. Identical bits keep m's slab; different bits
// rebind m to src's and refresh the cached fingerprint.
func TestAdoptStateRebindsProjection(t *testing.T) {
	cfg := Config{Inputs: 10, Hidden: 4, Outputs: 10}
	m, _ := New(cfg, rng.New(3))
	shared := m.w
	twin, _ := New(cfg, rng.New(3))
	if err := m.AdoptState(twin); err != nil {
		t.Fatal(err)
	}
	if m.w != shared {
		t.Fatal("adopting identical projection bits rebound the slab")
	}
	fp := m.Fingerprint()
	other, _ := New(cfg, rng.New(4))
	wBefore := append([]float64(nil), shared.Data...)
	if err := m.AdoptState(other); err != nil {
		t.Fatal(err)
	}
	if m.w != other.w {
		t.Fatal("adopting a different projection did not rebind")
	}
	if !sameBits64(shared.Data, wBefore) {
		t.Fatal("AdoptState wrote through the old projection")
	}
	if got := m.Fingerprint(); got == fp || got != other.Fingerprint() {
		t.Fatalf("fingerprint %x after adoption, want src's %x (was %x)", got, other.Fingerprint(), fp)
	}
}
