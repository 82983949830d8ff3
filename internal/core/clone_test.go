package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// trainedBits returns the bits of d's trained centroids, class by class.
func trainedBits(d *Detector) []uint64 {
	var bits []uint64
	for c := 0; c < d.classes; c++ {
		for _, v := range d.TrainedCentroid(c) {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// stateBytes returns d's SaveState image.
func stateBytes(t *testing.T, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sharedCentroidBytes is what d's EachShared names under the key of its
// trained centroids, 0 when it holds them privately.
func sharedCentroidBytes(d *Detector) int {
	n := 0
	d.EachShared(func(key any, b int) {
		if key == any(&d.trainCor[0]) {
			n = b
		}
	})
	return n
}

// TestCloneAtSharesTrainedCentroids runs every writer of the trained
// centroids on a clone: a drift with its full reconstruction, a
// RestoreState and a re-Calibrate. Each leaves the template's and an
// idle sibling's trained centroids and SaveState bytes as they were,
// gives the writing clone private centroids that its MemoryBytes counts
// in full, and leaves it computing exactly what the same writes compute
// on a LoadState twin of the template, which never shared anything.
func TestCloneAtSharesTrainedCentroids(t *testing.T) {
	tmpl, r := newCalibrated(t, 23, DefaultConfig(20))
	for i := 0; i < 60; i++ {
		tmpl.Process(sample(r, i%testClasses, 0))
	}
	drifted := make([][]float64, 1500)
	for i := range drifted {
		drifted[i] = sample(r, i%testClasses, 4)
	}
	// A checkpoint of another stream's rebuilt state, for the restore.
	other, err := tmpl.CloneAt(cloneModel(t, tmpl))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range drifted {
		other.Process(x)
	}
	if other.Reconstructions() == 0 {
		t.Fatal("the drifted stream never finished a reconstruction")
	}
	var ckpt bytes.Buffer
	if err := other.CheckpointState(&ckpt); err != nil {
		t.Fatal(err)
	}
	recal, recalLabels := trainSet(r, 200, 4)

	writers := []struct {
		name  string
		write func(*testing.T, *Detector) []Result
	}{
		{"drift and reconstruction", func(t *testing.T, d *Detector) []Result {
			var res []Result
			for _, x := range drifted {
				res = append(res, d.Process(x))
			}
			if d.Reconstructions() == 0 {
				t.Fatal("the stream never finished a reconstruction")
			}
			return res
		}},
		{"restore", func(t *testing.T, d *Detector) []Result {
			if err := d.RestoreState(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			return d.ProcessBatch(nil, drifted[:10])
		}},
		{"calibrate", func(t *testing.T, d *Detector) []Result {
			if err := d.Calibrate(recal, recalLabels); err != nil {
				t.Fatal(err)
			}
			return d.ProcessBatch(nil, drifted[:10])
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			twin, err := LoadState(bytes.NewReader(stateBytes(t, tmpl)), cloneModel(t, tmpl))
			if err != nil {
				t.Fatal(err)
			}
			clone, err := tmpl.CloneAt(tmpl.Model().Clone())
			if err != nil {
				t.Fatal(err)
			}
			sibling, err := tmpl.CloneAt(tmpl.Model().Clone())
			if err != nil {
				t.Fatal(err)
			}
			shared := 8 * testClasses * testDims
			if sharedCentroidBytes(clone) != shared || sharedCentroidBytes(tmpl) != shared {
				t.Fatal("clone and template do not name their shared trained centroids")
			}
			tmplBits, tmplState := trainedBits(tmpl), stateBytes(t, tmpl)
			sibBits, sibState := trainedBits(sibling), stateBytes(t, sibling)
			before, modelBefore := clone.MemoryBytes(), clone.Model().MemoryBytes()

			got, want := w.write(t, clone), w.write(t, twin)

			if !slices.Equal(trainedBits(tmpl), tmplBits) || !bytes.Equal(stateBytes(t, tmpl), tmplState) {
				t.Fatal("the write reached the template's trained centroids")
			}
			if !slices.Equal(trainedBits(sibling), sibBits) || !bytes.Equal(stateBytes(t, sibling), sibState) {
				t.Fatal("the write reached an idle sibling's trained centroids")
			}
			if sharedCentroidBytes(clone) != 0 {
				t.Fatal("the clone still shares its trained centroids after a write")
			}
			if rise := clone.MemoryBytes() - before - (clone.Model().MemoryBytes() - modelBefore); rise != shared {
				t.Fatalf("the clone's own audit rose %d B, want its private centroids' %d B", rise, shared)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, twin %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sample %d: clone %+v, twin %+v", i, got[i], want[i])
				}
			}
			if !bytes.Equal(stateBytes(t, clone), stateBytes(t, twin)) {
				t.Fatal("the clone's SaveState differs from its twin's")
			}
		})
	}
}

// TestCloneAtEnsembleAdopt: the members of a multi-window ensemble
// write their trained centroids when they adopt the state the driving
// member rebuilt. Clones of the members, taken before the drift, keep
// theirs, and the ensemble runs exactly as an identical one whose
// members were never cloned.
func TestCloneAtEnsembleAdopt(t *testing.T) {
	build := func() (*MultiWindow, [][]float64) {
		d, r := newCalibrated(t, 29, DefaultConfig(20))
		mw, err := NewMultiWindow(d.Model(), []int{10, 20}, 1, DefaultConfig(20))
		if err != nil {
			t.Fatal(err)
		}
		xs, labels := trainSet(r, 400, 0)
		if err := mw.Calibrate(xs, labels); err != nil {
			t.Fatal(err)
		}
		stream := make([][]float64, 1500)
		for i := range stream {
			stream[i] = sample(r, i%testClasses, 4)
		}
		return mw, stream
	}
	mw, stream := build()
	ref, _ := build()
	var clones []*Detector
	var bits [][]uint64
	for _, m := range mw.Members() {
		c, err := m.CloneAt(m.Model().Clone())
		if err != nil {
			t.Fatal(err)
		}
		clones, bits = append(clones, c), append(bits, trainedBits(c))
	}
	for i, x := range stream {
		if a, b := mw.Process(x), ref.Process(x); a != b {
			t.Fatalf("sample %d: ensemble with cloned members %+v, reference %+v", i, a, b)
		}
	}
	if len(mw.DriftEvents()) == 0 {
		t.Fatal("the ensemble never drifted")
	}
	for i, m := range mw.Members() {
		if sharedCentroidBytes(m) != 0 {
			t.Fatalf("member %d still shares its trained centroids after the rebuild", i)
		}
		if !slices.Equal(trainedBits(clones[i]), bits[i]) {
			t.Fatalf("the ensemble's rebuild reached member %d's clone", i)
		}
	}
}

// TestDetectorFitsItsSizeClass pins the detector's own struct, which
// every stream allocates, to the 640 B allocation class on 64-bit
// targets: the per-stage operation tables (6 × 56 B) live behind a
// pointer that only SetOps fills.
func TestDetectorFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Detector{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 640 {
		t.Fatalf("Detector is %d B, want at most 640 B", size)
	}
}
