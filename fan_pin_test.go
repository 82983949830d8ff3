package edgedrift_test

import (
	"bytes"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/coolingfan"
)

// The cooling-fan shape pin: the goldens and the pinned Save bytes run
// at D=3 and the NSL-KDD width, so this is the one fixture at the
// paper's deployed fan shape (D=511, H=22), the width whose W and β rows
// the kernels walk with a padded stride. The hashes were recorded with
// dense D=511 rows, so they prove the padded layout changes addresses
// only: the per-sample results over a 3,000-sample stream that flips
// between a normal and a holed fan every 600 samples (drift detections
// and reconstructions included), the Save bytes before and after that
// stream, and the merge fingerprint.
const (
	pinFanResults    = "773a8ea93fa88b00"
	pinFanSaveBefore = "1f9615131b4eecaa663caf5d5630963bbce62c696bff0d5504f1e9e98faa86ea"
	pinFanSaveAfter  = "8bf37aa6f5b0845e7d51ef91299afcd7658c3c13506ae2249058ed396674b88b"
	pinFanMergeFP    = 0xeff2386a5254a3c8
)

// fanPinStream is the fitted fan monitor and its 3,000-sample flip
// stream.
func fanPinStream(t *testing.T) (*edgedrift.Monitor, [][]float64) {
	t.Helper()
	p := coolingfan.DefaultParams()
	p.Seed = 5
	g := coolingfan.NewGenerator(p)
	trainX, trainY := g.TrainingSet(120)
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 1, Inputs: coolingfan.Features, Hidden: 22,
		Window: 50, NRecon: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 3000)
	for i := range xs {
		kind := coolingfan.Normal
		if i/600%2 == 1 {
			kind = coolingfan.Holes
		}
		xs[i] = g.Spectrum(kind, coolingfan.Silent)
	}
	return mon, xs
}

func saveF64(t *testing.T, mon *edgedrift.Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mon.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFanShapePinned runs the stream on the fitted monitor and on a
// copy loaded from its Save bytes; both must give the pinned results
// and end in the pinned Save bytes.
func TestFanShapePinned(t *testing.T) {
	mon, xs := fanPinStream(t)
	before := saveF64(t, mon)
	if got := sha(before); got != pinFanSaveBefore {
		t.Errorf("Save before the stream: sha256 %s, want %s", got, pinFanSaveBefore)
	}
	if got := mon.MergeFingerprint(); got != pinFanMergeFP {
		t.Errorf("merge fingerprint %#x, want %#x", got, uint64(pinFanMergeFP))
	}
	loaded, err := edgedrift.LoadMonitor(bytes.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*edgedrift.Monitor{"fitted": mon, "loaded": loaded} {
		if got := fingerprint(m, xs); got != pinFanResults {
			t.Errorf("%s: per-sample results hash %s, want %s", name, got, pinFanResults)
		}
		if got := sha(saveF64(t, m)); got != pinFanSaveAfter {
			t.Errorf("%s: Save after the stream: sha256 %s, want %s", name, got, pinFanSaveAfter)
		}
		if m.Reconstructions() == 0 {
			t.Errorf("%s: the stream ran no reconstruction", name)
		}
	}
}
