package fleet

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// leanDetector builds a calibrated two-class detector whose model is
// drawn from seed: detectors of one seed and shape hold bit-identical
// projections, as members cloned from one template do.
func leanDetector(t testing.TB, seed uint64, dims int) *core.Detector {
	t.Helper()
	m, err := model.New(model.Config{Classes: 2, Inputs: dims, Hidden: 6, Ridge: 1e-2}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := leanSamples(200, dims, 99)
	if err := m.InitSequential(xs, labels); err != nil {
		t.Fatal(err)
	}
	d, err := core.New(m, core.DefaultConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(xs, labels); err != nil {
		t.Fatal(err)
	}
	return d
}

// leanSamples draws n samples of two well-separated classes.
func leanSamples(n, dims int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		labels[i] = i % 2
		xs[i] = make([]float64, dims)
		for j := range xs[i] {
			xs[i][j] = r.Normal(3*float64(labels[i]), 0.3)
		}
	}
	return xs, labels
}

// projectionBytes reads the slabs detectors can hold in common — W/b,
// β/P and the trained centroids — from the structs themselves rather
// than through EachShared. all is the bytes of every distinct slab,
// found by the address of its backing array and counted once however
// many detectors hold it; owned is the bytes of the slabs the
// detectors' own audits count (those not marked shared), once per
// holder; distinct is the number of distinct W arrays.
func projectionBytes(ds ...*core.Detector) (all, owned, distinct int) {
	seen := map[uintptr]bool{}
	ws := map[uintptr]bool{}
	slab := func(shared bool, addr uintptr, n int) {
		if !seen[addr] {
			seen[addr] = true
			all += n
		}
		if !shared {
			owned += n
		}
	}
	data := func(mat reflect.Value) reflect.Value { return mat.Elem().FieldByName("Data") }
	for _, d := range ds {
		dv := reflect.ValueOf(d).Elem()
		cor := dv.FieldByName("trainCor")
		slab(dv.FieldByName("corShared").Bool(), cor.Index(0).Pointer(), 8*cor.Len()*cor.Index(0).Len())
		for i := 0; i < d.Model().Classes(); i++ {
			mv := reflect.ValueOf(d.Model().Instance(i).Model()).Elem()
			w, bias, beta, es := mv.FieldByName("w"), mv.FieldByName("bias"), mv.FieldByName("beta"), 8
			if w32 := mv.FieldByName("w32"); !w32.IsNil() {
				w, bias, beta, es = w32, mv.FieldByName("bias32"), mv.FieldByName("beta32"), 4
			}
			slab(mv.FieldByName("wShared").Bool(), data(w).Pointer(), es*(data(w).Len()+bias.Len()))
			p := data(mv.FieldByName("p"))
			slab(mv.FieldByName("lshared").Bool(), p.Pointer(), 8*p.Len()+es*data(beta).Len())
			ws[data(w).Pointer()] = true
		}
	}
	return all, owned, len(ws)
}

// auditTruth is Fleet.MemoryBytes's ground truth: every member's own
// audit with the slabs it counts taken out, plus every distinct slab the
// members hold, once (see projectionBytes).
func auditTruth(f *Fleet) int {
	private := 0
	var ds []*core.Detector
	f.eachMember(func(id string, m *member) {
		private += memberBytes(id, m)
		if d, ok := stageDetector(m.stage); ok {
			ds = append(ds, d)
		}
	})
	all, owned, _ := projectionBytes(ds...)
	return private - owned + all
}

// TestFleetMemoryAuditCountsSharedStateOnce pins the lean-member audit:
// Fleet.MemoryBytes is every member's private bytes plus each distinct
// shared projection once — through the Instrumented wrapper too.
func TestFleetMemoryAuditCountsSharedStateOnce(t *testing.T) {
	f := New(Config{Instrument: true})
	var dets []*core.Detector
	add := func(id string, d *core.Detector) {
		t.Helper()
		if err := f.Add(id, d); err != nil {
			t.Fatal(err)
		}
		dets = append(dets, d)
	}
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("same-%d", i), leanDetector(t, 1, 4)) // one template
	}
	add("other-seed", leanDetector(t, 2, 4))
	add("other-shape", leanDetector(t, 1, 5))
	if err := f.Add("plain", &countStage{}); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.IDs() {
		xs, _ := leanSamples(16, 4, 7)
		if id == "other-shape" {
			xs, _ = leanSamples(16, 5, 7)
		}
		if _, err := f.ProcessBatch(id, xs); err != nil {
			t.Fatal(err)
		}
	}

	all, owned, distinct := projectionBytes(dets...)
	if distinct != 6 {
		t.Fatalf("%d distinct projections, want 6 (two instances × three seed/shape groups)", distinct)
	}
	private := 0
	f.eachMember(func(id string, m *member) { private += memberBytes(id, m) })
	want := private - owned + all
	if got := f.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (members %d, %d of them slabs, + distinct slabs %d)",
			got, want, private, owned, all)
	}
	if got := f.Metrics().MemoryBytes; got != want {
		t.Fatalf("Metrics().MemoryBytes = %d, want %d", got, want)
	}

	// A member's own audit leaves the projection out: the same detector
	// standing alone owns it.
	cfg := dets[0].Model().Config()
	perMember := 8 * (cfg.Hidden*cfg.Inputs + cfg.Hidden) * cfg.Classes
	alone := leanDetector(t, 1, 4)
	xs, _ := leanSamples(16, 4, 7)
	alone.ProcessBatch(nil, xs)
	if got, want := alone.MemoryBytes()-dets[0].MemoryBytes(), perMember; got != want {
		t.Fatalf("standalone detector audits %d bytes more than a member, want %d", got, want)
	}

	// A projection leaves the audit with the last member that holds it:
	// until then a departing member takes only its own bytes along.
	own := map[string]int{}
	f.eachMember(func(id string, m *member) { own[id] = memberBytes(id, m) })
	want = f.MemoryBytes()
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("same-%d", i)
		if _, _, ok := f.Remove(id); !ok {
			t.Fatal("remove failed")
		}
		want -= own[id]
	}
	if got := f.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes %d after removing two of three holders, want %d", got, want)
	}
	enc := func(string, core.Streaming, io.Writer) (byte, error) { return 0, nil }
	if _, err := f.ExportMember("same-2", enc); err != nil {
		t.Fatal(err)
	}
	if got, want := f.MemoryBytes(), want-own["same-2"]-perMember; got != want {
		t.Fatalf("MemoryBytes %d after the last holder left, want %d", got, want)
	}

	// Clones share their template's learned state β and P and its
	// trained centroids too, until they write: of N clones with some
	// drifted (reset, so β and P are private) and some of those with
	// the reconstruction finished (the trained centroids private too),
	// the audit counts the private copies in full and each shared group
	// once, however many clones still read it.
	const n = 6
	tmpl := leanDetector(t, 3, 4)
	full := leanDetector(t, 3, 4).MemoryBytes() // the same detector owning everything
	c := tmpl.Model().Config()
	proj := 8 * (c.Hidden*c.Inputs + c.Hidden) * c.Classes
	learned := 8 * (c.Hidden*c.Hidden + c.Hidden*c.Inputs) * c.Classes
	scratch := 8 * c.Hidden * c.Classes // P·h, taken with the private β and P
	trained := 8 * c.Inputs * c.Classes // the trained centroids
	recon, _ := leanSamples(tmpl.Config().NRecon, c.Inputs, 11)
	for _, tc := range []struct{ drifted, rebuilt int }{{2, 0}, {3, 2}, {n, 1}, {n, n}} {
		fc := New(Config{})
		want := proj // the one shared projection
		if tc.drifted < n {
			want += learned // the shared learned state, once
		}
		if tc.rebuilt < n {
			want += trained // the shared trained centroids, once
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("clone-%d", i)
			d, err := tmpl.CloneAt(tmpl.Model().Clone())
			if err != nil {
				t.Fatal(err)
			}
			if err := fc.Add(id, d); err != nil {
				t.Fatal(err)
			}
			stage := full - proj - learned - scratch - trained
			if i < tc.drifted {
				d.TriggerReconstruction()
				stage += learned + scratch // its private β, P and P·h
			}
			if i < tc.rebuilt {
				if _, err := fc.ProcessBatch(id, recon); err != nil {
					t.Fatal(err)
				}
				if d.Reconstructions() != 1 {
					t.Fatal("the reconstruction did not finish")
				}
				stage += trained // its private trained centroids
			}
			want += stage + len(id) + memberOverheadBytes
		}
		name := fmt.Sprintf("%d of %d clones drifted, %d rebuilt", tc.drifted, n, tc.rebuilt)
		if got := fc.MemoryBytes(); got != want {
			t.Fatalf("%s: MemoryBytes = %d, want %d", name, got, want)
		}
		m := fc.Metrics()
		if m.MemoryBytes != want || m.SharedStreams != n-tc.drifted {
			t.Fatalf("%s: Metrics() audits %d B with %d shared streams, want %d B and %d",
				name, m.MemoryBytes, m.SharedStreams, want, n-tc.drifted)
		}
	}
}

// encDetector and decDetector are a member codec for bare detectors: the
// model, then the detector state. A decoded detector holds slabs of its
// own until the fleet rebinds its projection.
func encDetector(_ string, s core.Streaming, w io.Writer) (byte, error) {
	d := s.(*core.Detector)
	if _, err := d.Model().Save(w, oselm.Float64); err != nil {
		return 0, err
	}
	return 0, d.SaveState(w)
}

func decDetector(_ string, _ byte, r io.Reader) (core.Streaming, error) {
	m, err := model.Load(r)
	if err != nil {
		return nil, err
	}
	return core.LoadState(r, m)
}

// decoded returns a copy of d decoded from its own encoding.
func decoded(t testing.TB, d *core.Detector) *core.Detector {
	t.Helper()
	var b bytes.Buffer
	if _, err := encDetector("", d, &b); err != nil {
		t.Fatal(err)
	}
	s, err := decDetector("", 0, &b)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*core.Detector)
}

// memberDetector returns a member's detector.
func memberDetector(t testing.TB, f *Fleet, id string) *core.Detector {
	t.Helper()
	m, err := f.lockLive(id)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Unlock()
	d, ok := stageDetector(m.stage)
	if !ok {
		t.Fatalf("member %q has no detector", id)
	}
	return d
}

// TestFleetSharesSurvivorsProjection: with the first holder of a
// projection gone, a decoded member with the same bits joins the
// survivors' copy instead of keeping its own.
func TestFleetSharesSurvivorsProjection(t *testing.T) {
	tmpl := leanDetector(t, 5, 4)
	f := New(Config{})
	for _, id := range []string{"first", "survivor"} {
		if err := f.Add(id, decoded(t, tmpl)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := f.Remove("first"); !ok {
		t.Fatal("remove failed")
	}
	if err := f.Add("late", decoded(t, tmpl)); err != nil {
		t.Fatal(err)
	}
	survivor, late := memberDetector(t, f, "survivor"), memberDetector(t, f, "late")
	if _, _, distinct := projectionBytes(survivor, late); distinct != tmpl.Model().Classes() {
		t.Fatalf("%d distinct projections, want the survivors' %d", distinct, tmpl.Model().Classes())
	}
	if got, want := f.MemoryBytes(), auditTruth(f); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestFleetConcurrentRegistrationSharesOneProjection: two decoded
// members of one projection registered from two goroutines at once end
// on one copy. make race runs it under the race detector.
func TestFleetConcurrentRegistrationSharesOneProjection(t *testing.T) {
	tmpl := leanDetector(t, 6, 4)
	for round := 0; round < 20; round++ {
		f := New(Config{})
		ds := []*core.Detector{decoded(t, tmpl), decoded(t, tmpl)}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := f.Add(fmt.Sprintf("m%d", i), d); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if _, _, distinct := projectionBytes(ds...); distinct != tmpl.Model().Classes() {
			t.Fatalf("round %d: %d distinct projections, want %d", round, distinct, tmpl.Model().Classes())
		}
		if got, want := f.MemoryBytes(), auditTruth(f); got != want {
			t.Fatalf("round %d: MemoryBytes = %d, want %d", round, got, want)
		}
	}
}

// TestFleetMemoryAuditProperty runs seeded random sequences of
// registrations (clones and decoded copies of two templates), removals,
// export/import round trips, drift, finished reconstructions and
// save/load, and checks after every step that Fleet.MemoryBytes and
// Metrics agree with the ground truth read from the structs.
func TestFleetMemoryAuditProperty(t *testing.T) {
	tmpls := []*core.Detector{leanDetector(t, 7, 4), leanDetector(t, 8, 4)}
	recon, _ := leanSamples(tmpls[0].Config().NRecon, 4, 13)
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		f := New(Config{})
		next := 0
		pick := func() (string, bool) {
			ids := f.IDs()
			if len(ids) == 0 {
				return "", false
			}
			return ids[r.Intn(len(ids))], true
		}
		// settle finishes a member's reconstruction: a detector is saved
		// only between reconstructions.
		settle := func(id string) {
			if memberDetector(t, f, id).PhaseNow() != core.Reconstructing {
				return
			}
			if _, err := f.ProcessBatch(id, recon); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 60; step++ {
			var op string
			switch k := r.Intn(7); k {
			case 0, 1:
				tmpl := tmpls[r.Intn(len(tmpls))]
				d := decoded(t, tmpl)
				op = "add decoded"
				if k == 0 {
					var err error
					if d, err = tmpl.CloneAt(tmpl.Model().Clone()); err != nil {
						t.Fatal(err)
					}
					op = "add clone"
				}
				if err := f.Add(fmt.Sprintf("m%d", next), d); err != nil {
					t.Fatal(err)
				}
				next++
			case 2:
				op = "remove"
				if id, ok := pick(); ok {
					f.Remove(id)
				}
			case 3:
				op = "export/import"
				if id, ok := pick(); ok {
					settle(id)
					st, err := f.ExportMember(id, encDetector)
					if err == nil {
						err = f.ImportMember(st, decDetector)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				op = "drift"
				if id, ok := pick(); ok {
					f.Do(id, func(s core.Streaming) error {
						s.(*core.Detector).TriggerReconstruction()
						return nil
					})
				}
			case 5:
				op = "process"
				if id, ok := pick(); ok {
					if _, err := f.ProcessBatch(id, recon); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				op = "save/load"
				for _, id := range f.IDs() {
					settle(id)
				}
				var b bytes.Buffer
				if err := f.Save(&b, encDetector); err != nil {
					t.Fatal(err)
				}
				f = New(Config{})
				if err := f.Load(&b, decDetector); err != nil {
					t.Fatal(err)
				}
			}
			want := auditTruth(f)
			if got := f.MemoryBytes(); got != want {
				t.Fatalf("seed %d step %d (%s): MemoryBytes = %d, want %d", seed, step, op, got, want)
			}
			if got := f.Metrics().MemoryBytes; got != want {
				t.Fatalf("seed %d step %d (%s): Metrics().MemoryBytes = %d, want %d", seed, step, op, got, want)
			}
		}
	}
}
