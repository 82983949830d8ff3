package fixed

import (
	"testing"

	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// trainedAutoencoder builds a small trained float autoencoder whose
// weights sit comfortably inside the Q16.16 range.
func trainedAutoencoder(t *testing.T) *oselm.Autoencoder {
	t.Helper()
	ae, err := oselm.NewAutoencoder(oselm.Config{Inputs: 6, Hidden: 4}, oselm.L1Mean, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	x := make([]float64, 6)
	for i := 0; i < 50; i++ {
		r.FillUniform(x, -1, 1)
		ae.Train(x)
	}
	return ae
}

// TestQuantizeCountsNoSaturationInRange pins the happy path: a model
// trained on standardised features quantises without a single clip.
func TestQuantizeCountsNoSaturationInRange(t *testing.T) {
	qa := QuantizeAutoencoder(trainedAutoencoder(t))
	if got := qa.Saturations(); got != 0 {
		t.Fatalf("in-range model clipped %d parameters, want 0", got)
	}
}

// TestQuantizeCountsSaturations forces parameters outside the Q16.16
// range (±32768) and checks every clip is counted, so deployments can
// tell a faithfully quantised model from a silently clamped one.
func TestQuantizeCountsSaturations(t *testing.T) {
	ae := trainedAutoencoder(t)
	_, _, beta := ae.Model().Weights() // live view at float64
	beta[0] = 1e6                      // far above the Q16.16 ceiling
	beta[1] = -1e6
	qa := QuantizeAutoencoder(ae)
	if got := qa.Saturations(); got != 2 {
		t.Fatalf("out-of-range model counted %d saturations, want 2", got)
	}
}

// TestMonitorHealthReportsSaturations checks the counter surfaces where
// operators look: a quantised detector built from an out-of-range float
// model reports its clips through the stage's health snapshot.
func TestMonitorHealthReportsSaturations(t *testing.T) {
	det, r := calibratedFloatDetector(t, 21)
	_, _, beta := det.Model().Instance(0).Model().Weights()
	beta[0] = 1e6
	s := QuantizeDetector(det)
	for i := 0; i < 10; i++ {
		s.Process(monSample(r, i%monClasses, 0))
	}
	h := s.Health()
	if h.QuantSaturations == 0 {
		t.Fatal("monitor health reports zero quantisation saturations for an out-of-range model")
	}
	if h.SamplesSeen != 10 {
		t.Fatalf("monitor health SamplesSeen = %d, want 10", h.SamplesSeen)
	}
	if !h.Healthy() {
		t.Fatalf("saturation alone must not mark the monitor unhealthy: %+v", h)
	}
}

// TestFromFloatCheckedReportsClip pins the primitive underneath the
// counter: exact range behaviour plus the NaN policy (NaN clamps to
// zero and is reported as a clip).
func TestFromFloatCheckedReportsClip(t *testing.T) {
	if _, clipped := FromFloatChecked(1.5); clipped {
		t.Fatal("1.5 reported as clipped")
	}
	if q, clipped := FromFloatChecked(1e9); !clipped || q != MaxQ {
		t.Fatalf("1e9 → (%d, %v), want (MaxQ, true)", q, clipped)
	}
	if q, clipped := FromFloatChecked(-1e9); !clipped || q != MinQ {
		t.Fatalf("-1e9 → (%d, %v), want (MinQ, true)", q, clipped)
	}
}
