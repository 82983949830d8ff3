package edgedrift_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"edgedrift"
)

// memberProjection returns the live W and b slabs of every instance of
// a fleet member's full-precision model, in instance order.
func memberProjection(t *testing.T, f *edgedrift.Fleet, id string) [][]float64 {
	t.Helper()
	var slabs [][]float64
	if err := f.Do(id, func(mon *edgedrift.Monitor) error {
		for i := 0; i < mon.Model().Classes(); i++ {
			w, bias, _ := mon.Model().Instance(i).Model().Weights()
			slabs = append(slabs, w, bias)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return slabs
}

func checksum(slabs [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range slabs {
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

// sameSlabs reports whether two members hold the very same arrays.
func sameSlabs(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// TestFleetSharedProjectionNeverWritten: members cloned from one
// template share one read-only projection, and a full life cycle —
// drift and reconstruction, demote/promote, a cooperative merge seed,
// export/import and save/load — never writes it.
func TestFleetSharedProjectionNeverWritten(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, id := range []string{"a", "b", "c"} {
		if err := f.AddCohort(id, fx.monitor(t, 1), "cohort"); err != nil {
			t.Fatal(err)
		}
	}
	slab := memberProjection(t, f, "a")
	sum := checksum(slab)
	for _, id := range []string{"b", "c"} {
		if !sameSlabs(slab, memberProjection(t, f, id)) {
			t.Fatalf("member %q does not share the template's projection", id)
		}
	}
	feed := func(f *edgedrift.Fleet, id string, xs [][]float64) {
		t.Helper()
		for lo := 0; lo < len(xs); lo += 50 {
			if _, err := f.ProcessBatch(id, xs[lo:min(lo+50, len(xs))]); err != nil {
				t.Fatal(err)
			}
		}
	}

	feed(f, "a", fx.stream) // drift at 1000, then Algorithm 2
	if _, drifts, _ := f.MemberStats("a"); drifts == 0 {
		t.Fatal("the stream never drifted; the cycle did not reconstruct")
	}
	if err := f.DemoteMember("b", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	feed(f, "b", fx.stream[:300])
	if err := f.PromoteMember("b"); err != nil {
		t.Fatal(err)
	}
	state, _, err := f.ExportMergeState("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MergeSeedMember("b", [][]byte{state}); err != nil {
		t.Fatal(err)
	}
	st, err := f.ExportMember("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ImportMember(st); err != nil {
		t.Fatal(err)
	}
	var art bytes.Buffer
	if err := f.Save(&art, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	loaded, err := edgedrift.LoadFleet(&art, edgedrift.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		feed(f, id, fx.stream[:200])
		feed(loaded, id, fx.stream[:200])
	}

	if got := checksum(slab); got != sum {
		t.Fatalf("shared projection checksum %x after the cycle, was %x", got, sum)
	}
	for _, id := range []string{"a", "b", "c"} {
		if !sameSlabs(slab, memberProjection(t, f, id)) {
			t.Fatalf("member %q left the shared projection", id)
		}
		if got := memberProjection(t, loaded, id); checksum(got) != sum || !sameSlabs(got, memberProjection(t, loaded, "a")) {
			t.Fatalf("loaded member %q does not share the reloaded projection", id)
		}
	}
}

// TestFleetConcurrentSharedProjectionBitIdentical drives many members
// of two templates from concurrent goroutines, so several members score
// on one interned projection at once, and checks each stream against
// the same monitor running alone, one Process call per sample. Run
// under -race (make race) it also proves the shared projections are
// only read.
func TestFleetConcurrentSharedProjectionBitIdentical(t *testing.T) {
	fx := newFleetFixture(t)
	const members = 8
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	streams := make([][][]float64, members)
	want := make([][]edgedrift.Result, members)
	for i := range streams {
		seed := uint64(1 + i%2)
		streams[i] = append(append([][]float64(nil), fx.stream[i*100:]...), fx.stream[:i*100]...)
		alone := fx.monitor(t, seed)
		for _, x := range streams[i] {
			want[i] = append(want[i], alone.Process(x))
		}
		if err := f.Add(fmt.Sprintf("m%d", i), fx.monitor(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]edgedrift.Result, members)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("m%d", i)
			for lo := 0; lo < len(streams[i]); lo += 40 {
				var err error
				got[i], err = f.ProcessBatchInto(got[i], id, streams[i][lo:min(lo+40, len(streams[i]))])
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("member %d diverged from its standalone monitor", i)
		}
	}
}
