package oselm

import (
	"fmt"
	"math"
	"testing"

	"edgedrift/internal/opcount"
	"edgedrift/internal/rng"
)

// requireSameState fails unless a and b hold the same bits in their
// learned state and counters, and their working sets sa and sb the same
// forward pass. The residual buffer e holds the residual after an
// update and, on the watchdog's repair path, the reconstruction ScoreIn
// or TrainIn wrote there.
func requireSameState(t *testing.T, a, b *Autoencoder, sa, sb *Scratch, what string) {
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
	same("h", sa.h, sb.h)
	same("ph", sa.ph, sb.ph)
	same("e", sa.e, sb.e)
	if ma.beta32 != nil && (!sameBits32(sa.o32, sb.o32) || !sameBits32(sa.u32, sb.u32)) {
		t.Fatalf("%s: float32 staging differs", what)
	}
	if ma.inits != mb.inits || ma.wdCount != mb.wdCount || ma.wdResets != mb.wdResets {
		t.Fatalf("%s: counters (%d, %d, %d) vs (%d, %d, %d)", what,
			ma.inits, ma.wdCount, ma.wdResets, mb.inits, mb.wdCount, mb.wdResets)
	}
}

// TestTrainScoredMatchesTrain pins the reuse: ScoreIn(s, x) then
// TrainScored(s, x) leaves the bits, watchdog state and operation counts
// that ScoreIn(s, x) then TrainIn(s, x) leaves, on both backends, every metric and
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
				setWatchdogPeriod(a.model, 16)
				setWatchdogPeriod(b.model, 16)
				sa, sb := newScratch(a.model.f.cfg), newScratch(b.model.f.cfg)
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
					va, vb := a.ScoreIn(&sa, x), b.ScoreIn(&sb, x)
					if math.Float64bits(va) != math.Float64bits(vb) {
						t.Fatalf("%s sample %d: score %v vs %v", what, i, va, vb)
					}
					a.TrainScored(&sa, x)
					b.TrainIn(&sb, x)
					requireSameState(t, a, b, &sa, &sb, fmt.Sprintf("%s sample %d", what, i))
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
		l := ae.model.scratches()
		if n := testing.AllocsPerRun(200, func() {
			g := l.Get()
			ae.ScoreIn(g.Slot(0), x)
			ae.TrainScored(g.Slot(0), x)
			l.Put(g)
		}); n != 0 {
			t.Fatalf("TrainScored(%v) allocates %v objects per Score+TrainScored, want 0", prec, n)
		}
	}
}
