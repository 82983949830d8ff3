package oselm

import (
	"math"
	"sync"
	"testing"

	"edgedrift/internal/rng"
)

// TestScratchesKeepEverySet: the list makes a set only when none is
// free, never drops one, counts at least one, and Get and Put allocate
// nothing once it holds the sets its callers overlap on.
func TestScratchesKeepEverySet(t *testing.T) {
	cfg, err := Config{Inputs: 5, Hidden: 3, Outputs: 5, Precision: Float32}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	l := NewScratches(cfg, 2)
	if n := l.Sets(); n != 1 {
		t.Fatalf("an empty list counts %d sets, want 1", n)
	}
	a, b := l.Get(), l.Get()
	if len(a.slots) != 2 {
		t.Fatalf("a set holds %d slots, want 2", len(a.slots))
	}
	for _, s := range a.slots {
		n := 8*(len(s.h)+len(s.ph)+len(s.e)) + 4*(len(s.h32)+len(s.x32)+len(s.o32)+len(s.u32)+len(s.e32))
		if n != ScratchBytes(cfg) {
			t.Fatalf("a slot holds %d B of buffers, ScratchBytes says %d", n, ScratchBytes(cfg))
		}
	}
	l.Put(a)
	l.Put(b)
	if c, d := l.Get(), l.Get(); c == d || (c != a && c != b) || (d != a && d != b) {
		t.Fatal("Get made a set while one was free")
	} else {
		l.Put(c)
		l.Put(d)
	}
	if n := l.Sets(); n != 2 {
		t.Fatalf("the list counts %d sets after two overlapped, want 2", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		x, y := l.Get(), l.Get()
		l.Put(y)
		l.Put(x)
	}); allocs != 0 {
		t.Fatalf("Get and Put allocate %v objects, want 0", allocs)
	}
}

// TestClonesScoreConcurrently: a model and its clone borrow from one
// list on two goroutines at once (make race runs this under the race
// detector); each trains and scores exactly as a private model does,
// and the list holds at most two sets.
func TestClonesScoreConcurrently(t *testing.T) {
	cfg := Config{Inputs: 6, Hidden: 5, Ridge: 1e-2}
	tmpl, err := NewAutoencoder(cfg, MSE, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	run := func(a *Autoencoder, seed uint64) []float64 {
		r := rng.New(seed)
		x := make([]float64, 6)
		var out []float64
		for i := 0; i < 300; i++ {
			r.FillNorm(x, 0, 1)
			out = append(out, a.Score(x))
			a.Train(x)
		}
		return out
	}
	ref, _ := NewAutoencoder(cfg, MSE, rng.New(4))
	want := [2][]float64{run(ref, 1), nil}
	ref2, _ := NewAutoencoder(cfg, MSE, rng.New(4))
	want[1] = run(ref2, 2)

	clone := tmpl.Clone()
	var got [2][]float64
	var wg sync.WaitGroup
	for i, a := range []*Autoencoder{tmpl, clone} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(a, uint64(i+1))
		}()
	}
	wg.Wait()
	for i := range got {
		for k := range got[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("model %d sample %d: score %v, want %v", i, k, got[i][k], want[i][k])
			}
		}
	}
	if tmpl.model.f.scr != clone.model.f.scr {
		t.Fatal("the clone does not borrow from the template's list")
	}
	if n := tmpl.model.f.scr.Sets(); n > 2 {
		t.Fatalf("the list holds %d sets, want at most 2", n)
	}
}
