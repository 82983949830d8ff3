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
	"edgedrift/internal/pool"
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

// templateLearned returns a checksum of the learned state (β and P) of
// every instance of mon's full-precision model.
func templateLearned(mon *edgedrift.Monitor) uint64 {
	var slabs [][]float64
	for i := 0; i < mon.Model().Classes(); i++ {
		om := mon.Model().Instance(i).Model()
		slabs = append(slabs, om.Beta().Data, om.P().Data)
	}
	return checksum(slabs)
}

// TestFleetSharedProjectionNeverWritten: members cloned from one
// template share its read-only projection and, until they write, its
// learned state β and P. No writer ever reaches a shared slab: drift
// and reconstruction, demote → train → promote, a cooperative merge
// seed, export/import, a batch initialisation, sequential training, an
// adopt, a pool restore and save/load all leave the template's slabs
// and an idle sibling's Save bytes as they were.
func TestFleetSharedProjectionNeverWritten(t *testing.T) {
	fx := newFleetFixture(t)
	tmpl := fx.monitor(t, 1)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	clone := func(id, cohort string) {
		t.Helper()
		if err := f.AddCohort(id, mustClone(t, tmpl), cohort); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		clone(id, "cohort")
	}
	clone("idle", "")
	clone("adopt", "")
	clone("batch", "")
	clone("train", "")
	slab := memberProjection(t, f, "a")
	sum, learned := checksum(slab), templateLearned(tmpl)
	idle := memberSave(t, f, "idle")
	for _, id := range f.IDs() {
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
	check := func(step string) {
		t.Helper()
		if got := templateLearned(tmpl); got != learned {
			t.Fatalf("after %s: template learned-state checksum %x, was %x", step, got, learned)
		}
		if got := checksum(slab); got != sum {
			t.Fatalf("after %s: shared projection checksum %x, was %x", step, got, sum)
		}
		if !bytes.Equal(memberSave(t, f, "idle"), idle) {
			t.Fatalf("after %s: the idle sibling's Save bytes changed", step)
		}
	}

	feed(f, "a", fx.stream) // drift at 1000, then Algorithm 2
	if _, drifts, _ := f.MemberStats("a"); drifts == 0 {
		t.Fatal("the stream never drifted; the cycle did not reconstruct")
	}
	check("drift and reconstruction")
	if err := f.DemoteMember("b", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	feed(f, "b", fx.stream[:300])
	if err := f.PromoteMember("b"); err != nil {
		t.Fatal(err)
	}
	check("demote, train, promote")
	state, _, err := f.ExportMergeState("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MergeSeedMember("b", [][]byte{state}); err != nil {
		t.Fatal(err)
	}
	check("merge seed")
	st, err := f.ExportMember("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ImportMember(st); err != nil {
		t.Fatal(err)
	}
	feed(f, "c", fx.stream)
	check("export, import and drift")
	if err := f.Do("batch", func(mon *edgedrift.Monitor) error {
		return mon.Model().InitBatch(fx.trainX, fx.trainY)
	}); err != nil {
		t.Fatal(err)
	}
	check("batch initialisation")
	if err := f.Do("train", func(mon *edgedrift.Monitor) error {
		for _, x := range fx.stream[:100] {
			mon.Model().Train(x, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("sequential training")
	donor := fx.monitor(t, 1)
	donor.Process(fx.stream[1500])
	if err := f.Do("adopt", func(mon *edgedrift.Monitor) error {
		return mon.Model().AdoptState(donor.Model())
	}); err != nil {
		t.Fatal(err)
	}
	check("adopt")
	pooled, err := pool.NewStage(mustClone(t, tmpl).Detector(), pool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddStage("pooled", pooled); err != nil {
		t.Fatal(err)
	}
	// Old concept, new concept, old concept again: the return is matched
	// against the checkpoint cut at the first drift and restored.
	feed(f, "pooled", append(append(append([][]float64(nil), fx.stream...), fx.stream[1000:2500]...), fx.stream[:1500]...))
	if pooled.Restores() == 0 {
		t.Fatal("the pool never restored a checkpoint")
	}
	check("pool restore")
	f.Remove("pooled") // a pool stage has no fleet wire format
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
	check("save and load")

	for _, id := range []string{"a", "b", "c", "idle", "adopt", "batch", "train"} {
		if !sameSlabs(slab, memberProjection(t, f, id)) {
			t.Fatalf("member %q left the shared projection", id)
		}
		if got := memberProjection(t, loaded, id); checksum(got) != sum || !sameSlabs(got, memberProjection(t, loaded, "a")) {
			t.Fatalf("loaded member %q does not share the reloaded projection", id)
		}
	}
}

// memberSave returns one fleet member's Save bytes.
func memberSave(t *testing.T, f *edgedrift.Fleet, id string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.Do(id, func(mon *edgedrift.Monitor) error { return mon.Save(&b, edgedrift.Float64) }); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFleetConcurrentSharedProjectionBitIdentical drives many members
// of two templates from concurrent goroutines, so several members score
// on one shared projection at once, and checks each stream against
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
