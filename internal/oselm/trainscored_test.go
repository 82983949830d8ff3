package oselm

import (
	"fmt"
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// requireSameState fails unless a and b hold the same bits in their
// learned state, counters and forward-pass scratch. The residual
// scratch is left out: every update writes it before reading it, and
// on the watchdog's repair path only Train has written it.
func requireSameState(t *testing.T, a, b *Autoencoder, what string) {
	t.Helper()
	ma, mb := a.model, b.model
	same := func(name string, x, y []float64) {
		t.Helper()
		if !sameBits64(x, y) {
			t.Fatalf("%s: %s differs", what, name)
		}
	}
	same("P", ma.p.Data, mb.p.Data)
	same("β", ma.Beta().Data, mb.Beta().Data)
	same("h", ma.h, mb.h)
	same("ph", ma.ph, mb.ph)
	same("recon", a.recon, b.recon)
	if ma.beta32 != nil && (!sameBits32(ma.o32, mb.o32) || !sameBits32(ma.u32, mb.u32)) {
		t.Fatalf("%s: float32 staging differs", what)
	}
	if ma.inits != mb.inits || ma.wdCount != mb.wdCount || ma.wdResets != mb.wdResets {
		t.Fatalf("%s: counters (%d, %d, %d) vs (%d, %d, %d)", what,
			ma.inits, ma.wdCount, ma.wdResets, mb.inits, mb.wdCount, mb.wdResets)
	}
}

// TestTrainScoredMatchesTrain pins the reuse: Score(x) then
// TrainScored(x) leaves the bits, watchdog state and operation counts
// that Score(x) then Train(x) leaves, on both backends, every metric and
// with and without forgetting, including the watchdog's repair of a
// poisoned P (a NaN denominator) in the middle of the stream.
func TestTrainScoredMatchesTrain(t *testing.T) {
	const d, h = 38, 12
	for _, prec := range []Precision{Float64, Float32} {
		for _, metric := range []ScoreMetric{MSE, L1Mean, L2Norm} {
			for _, forget := range []float64{1, 0.97} {
				what := fmt.Sprintf("%v/%v/α=%v", prec, metric, forget)
				cfg := Config{Inputs: d, Hidden: h, Forgetting: forget, Ridge: 1e-2, Precision: prec}
				a, err := NewAutoencoder(cfg, metric, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				b, _ := NewAutoencoder(cfg, metric, rng.New(5))
				a.model.SetWatchdogPeriod(16)
				b.model.SetWatchdogPeriod(16)
				var opsA, opsB opcount.Counter
				a.SetOps(&opsA)
				b.SetOps(&opsB)
				r := rng.New(6)
				x := make([]float64, d)
				for i := 0; i < 120; i++ {
					r.FillNorm(x, float64(i%3), 1)
					if i == 70 {
						poisonP(a.model)
						poisonP(b.model)
					}
					sa, sb := a.Score(x), b.Score(x)
					if math.Float64bits(sa) != math.Float64bits(sb) {
						t.Fatalf("%s sample %d: score %v vs %v", what, i, sa, sb)
					}
					a.TrainScored(x)
					b.Train(x)
					requireSameState(t, a, b, fmt.Sprintf("%s sample %d", what, i))
				}
				if a.model.WatchdogResets() != 1 {
					t.Fatalf("%s: %d watchdog repairs, want the poisoned P's one", what, a.model.WatchdogResets())
				}
				if opsA != opsB {
					t.Fatalf("%s: op counts %+v vs %+v", what, opsA, opsB)
				}
			}
		}
	}
}

func TestTrainScoredZeroAllocs(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		ae, err := NewAutoencoder(Config{Inputs: 64, Hidden: 22, Precision: prec}, MSE, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 64)
		rng.New(3).FillUniform(x, -1, 1)
		if n := testing.AllocsPerRun(200, func() { ae.Score(x); ae.TrainScored(x) }); n != 0 {
			t.Fatalf("TrainScored(%v) allocates %v objects per Score+TrainScored, want 0", prec, n)
		}
	}
}
