package oselm

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"edgedrift/internal/rng"
)

// learnedSum hashes m's learned state, β and P, as m holds it now.
func learnedSum(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]float64{m.Beta().Data, m.P().Data} {
		for _, v := range s {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestCloneCopyOnWrite runs every writer on a clone: each leaves the
// template's learned state bit for bit as it was, gives the clone
// private slabs counted in full by its MemoryBytes, and leaves the
// clone computing exactly what the same write does on an unshared copy
// of the template.
func TestCloneCopyOnWrite(t *testing.T) {
	xs, ts := makeRegression(rng.New(9), 40, 5, 5)
	writers := []struct {
		name  string
		write func(*Model)
	}{
		{"train", func(m *Model) { m.Train(xs[0], ts[0]) }},
		{"reset", func(m *Model) { m.Reset() }},
		{"batch init", func(m *Model) {
			if err := m.InitTrainBatch(xs[:20], ts[:20]); err != nil {
				t.Fatal(err)
			}
		}},
		{"merge", func(m *Model) {
			src := m.Clone()
			for i := range xs {
				src.Train(xs[i], ts[i])
			}
			if err := m.Merge(src); err != nil {
				t.Fatal(err)
			}
		}},
		{"adopt", func(m *Model) {
			src := m.Clone()
			src.Train(xs[1], ts[1])
			if err := m.AdoptState(src); err != nil {
				t.Fatal(err)
			}
		}},
		{"divergence repair", func(m *Model) {
			// A NaN input makes h, and so the denominator, NaN: the
			// watchdog guard inside update repairs P.
			x := append([]float64(nil), xs[2]...)
			x[0] = math.NaN()
			m.Train(x, ts[2])
			if m.WatchdogResets() == 0 {
				t.Fatal("the watchdog did not repair")
			}
		}},
	}
	for _, prec := range []Precision{Float64, Float32} {
		for _, w := range writers {
			t.Run(fmt.Sprintf("%v/%s", prec, w.name), func(t *testing.T) {
				cfg := Config{Inputs: 5, Hidden: 7, Outputs: 5, Ridge: 0.01, Precision: prec}
				tmpl, err := New(cfg, rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				for i := range xs[:10] {
					tmpl.Train(xs[i], ts[i])
				}
				// owner is the same model never shared: the reference
				// for what the write computes.
				owner, err := New(cfg, rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				for i := range xs[:10] {
					owner.Train(xs[i], ts[i])
				}
				clone := tmpl.Clone()
				if !clone.SharesLearnedState() || !tmpl.SharesLearnedState() {
					t.Fatal("clone and template do not report shared learned state")
				}
				shared := 0
				clone.EachShared(func(key any, n int) {
					if key == any(clone.p) {
						shared = n
					}
				})
				if want := 8*7*7 + prec.Bytes()*7*5; shared != want {
					t.Fatalf("shared learned state reported as %d B, want %d", shared, want)
				}
				before, sum := clone.MemoryBytes(), learnedSum(tmpl)
				w.write(clone)
				w.write(owner)
				if got := learnedSum(tmpl); got != sum {
					t.Fatal("the write reached the template's learned state")
				}
				if clone.SharesLearnedState() {
					t.Fatal("the clone still shares after a write")
				}
				// The private copy brings the RLS scratch Clone left out:
				// P·h, and on float32 the narrowed gain and residual.
				scratch := 8 * 7
				if prec == Float32 {
					scratch += 4 * (7 + 5)
				}
				if got := clone.MemoryBytes() - before; got != shared+scratch {
					t.Fatalf("the clone's audit rose %d B, want its private copy's %d B and %d B of scratch", got, shared, scratch)
				}
				if learnedSum(clone) != learnedSum(owner) || clone.inits != owner.inits {
					t.Fatal("the clone's write differs from the same write on an unshared model")
				}
			})
		}
	}
}

// TestCloneSharesProjection: a clone holds the template's projection
// slabs and cached fingerprint, and ShareProjection accepts the slabs
// it already holds while still refusing other bits.
func TestCloneSharesProjection(t *testing.T) {
	tmpl, err := New(Config{Inputs: 4, Hidden: 3, Outputs: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	clone := tmpl.Clone()
	if clone.w != tmpl.w || &clone.bias[0] != &tmpl.bias[0] {
		t.Fatal("the clone does not hold the template's projection")
	}
	if !clone.fprintOK || clone.fprint != tmpl.Fingerprint() {
		t.Fatal("the clone does not carry the template's fingerprint")
	}
	if !clone.ShareProjection(tmpl) || !clone.wShared {
		t.Fatal("ShareProjection refused the very slabs the clone holds")
	}
	if other := mustModel(t, Config{Inputs: 4, Hidden: 3, Outputs: 4}, 2); other.ShareProjection(tmpl) {
		t.Fatal("ShareProjection accepted a different projection")
	}
}
