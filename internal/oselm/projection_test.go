package oselm

import (
	"testing"

	"edgedrift/internal/rng"
)

// TestShareProjection: models drawn from one seed share one projection,
// bit for bit, and both stop counting it in MemoryBytes while
// EachShared names it under one key; a model with other bits refuses
// it; the float32 backend has none to share.
func TestShareProjection(t *testing.T) {
	cfg := Config{Inputs: 10, Hidden: 4, Outputs: 10}
	owner, _ := New(cfg, rng.New(3))
	same, _ := New(cfg, rng.New(3))
	other, _ := New(cfg, rng.New(4))
	before, ownerBefore := same.MemoryBytes(), owner.MemoryBytes()
	if !same.ShareProjection(owner) {
		t.Fatal("same-seed model refused an identical projection")
	}
	if same.w != owner.w || &same.bias[0] != &owner.bias[0] {
		t.Fatal("ShareProjection did not rebind to the shared slabs")
	}
	proj := 8 * (len(owner.w.Data) + len(owner.bias))
	if got := before - same.MemoryBytes(); got != proj {
		t.Fatalf("sharing saved %d bytes, want %d", got, proj)
	}
	if got := ownerBefore - owner.MemoryBytes(); got != proj {
		t.Fatalf("the peer's audit fell %d bytes, want %d", got, proj)
	}
	keys := map[any]int{}
	for _, m := range []*Model{owner, same} {
		m.EachShared(func(key any, n int) { keys[key] = n })
	}
	if len(keys) != 1 || keys[owner.w] != proj {
		t.Fatalf("EachShared named %v, want the one W slab with %d bytes", keys, proj)
	}
	if other.ShareProjection(owner) {
		t.Fatal("a model with different bits accepted the projection")
	}
	f32, _ := New(Config{Inputs: 10, Hidden: 4, Outputs: 10, Precision: Float32}, rng.New(3))
	if f32.ShareProjection(owner) || owner.ShareProjection(f32) {
		t.Fatal("float32 backend must not share a float64 projection")
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
