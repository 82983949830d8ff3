package fleet

import (
	"fmt"
	"io"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/model"
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

// projectionBytes sums the distinct W and b arrays the detectors'
// models hold, each counted once however many models share it, and
// reports how many distinct arrays there were.
func projectionBytes(ds ...*core.Detector) (bytes, distinct int) {
	seen := map[*float64]bool{}
	for _, d := range ds {
		for i := 0; i < d.Model().Classes(); i++ {
			w, bias, _ := d.Model().Instance(i).Model().Weights()
			if !seen[&w[0]] {
				seen[&w[0]] = true
				bytes += 8 * (len(w) + len(bias))
				distinct++
			}
		}
	}
	return bytes, distinct
}

// TestFleetMemoryAuditCountsSharedStateOnce pins the lean-member audit:
// Fleet.MemoryBytes is every member's private bytes plus each distinct
// interned projection once — through the Instrumented wrapper too.
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

	slabBytes, distinct := projectionBytes(dets...)
	if distinct != 6 {
		t.Fatalf("%d distinct projections, want 6 (two instances × three seed/shape groups)", distinct)
	}
	private := 0
	f.eachMember(func(id string, m *member) { private += memberBytes(id, m) })
	want := private + slabBytes
	if got := f.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (members %d + projections %d)",
			got, want, private, slabBytes)
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

	// Projections are released with the last member that holds them.
	before := f.proj.size()
	for i := 0; i < 2; i++ {
		if _, _, ok := f.Remove(fmt.Sprintf("same-%d", i)); !ok {
			t.Fatal("remove failed")
		}
	}
	if got := f.proj.size(); got != before {
		t.Fatalf("projection bytes %d after removing two of three holders, want %d", got, before)
	}
	enc := func(string, core.Streaming, io.Writer) (byte, error) { return 0, nil }
	if _, _, _, _, _, err := f.ExportMember("same-2", enc); err != nil {
		t.Fatal(err)
	}
	if got, want := f.proj.size(), before-perMember; got != want {
		t.Fatalf("projection bytes %d after the last holder left, want %d", got, want)
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
		want := proj // the one interned projection
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
