package coolingfan

import (
	"math"
	"testing"

	"edgedrift/internal/mat"
)

func TestStringers(t *testing.T) {
	if Normal.String() != "normal" || Holes.String() != "holes" || Chipped.String() != "chipped" {
		t.Fatal("fan kind names")
	}
	if FanKind(9).String() != "FanKind(9)" {
		t.Fatal("unknown kind")
	}
	if Silent.String() != "silent" || Noisy.String() != "noisy" {
		t.Fatal("env names")
	}
}

func TestSpectrumShape(t *testing.T) {
	g := NewGenerator(DefaultParams())
	s := g.Spectrum(Normal, Silent)
	if len(s) != Features {
		t.Fatalf("spectrum length %d", len(s))
	}
	for i, v := range s {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bin %d = %v", i, v)
		}
	}
	// The fundamental (37 Hz → bin index 36) must stand clear of the
	// floor.
	if s[36] < 0.3 {
		t.Fatalf("fundamental amplitude %v", s[36])
	}
	// A quiet bin far from any harmonic stays near the floor.
	if s[16] > 0.3 {
		t.Fatalf("floor bin amplitude %v", s[16])
	}
}

func TestHolesBoostImbalancePeak(t *testing.T) {
	g := NewGenerator(DefaultParams())
	var normal1x, holes1x float64
	const n = 50
	for i := 0; i < n; i++ {
		normal1x += g.Spectrum(Normal, Silent)[36]
		holes1x += g.Spectrum(Holes, Silent)[36]
	}
	if holes1x < 1.8*normal1x {
		t.Fatalf("holes 1× peak %v not clearly above normal %v", holes1x/n, normal1x/n)
	}
}

func TestChippedAddsSidebands(t *testing.T) {
	g := NewGenerator(DefaultParams())
	// Blade pass = 7·37 = 259 Hz; sidebands at 222 and 296 Hz.
	var normalSB, chippedSB float64
	const n = 50
	for i := 0; i < n; i++ {
		sN := g.Spectrum(Normal, Silent)
		sC := g.Spectrum(Chipped, Silent)
		normalSB += sN[221] + sN[295]
		chippedSB += sC[221] + sC[295]
	}
	if chippedSB < 3*normalSB {
		t.Fatalf("chipped sidebands %v not clearly above normal %v", chippedSB/n, normalSB/n)
	}
}

func TestNoisyEnvironmentRaisesFloor(t *testing.T) {
	g := NewGenerator(DefaultParams())
	floorOf := func(env Env) float64 {
		var sum float64
		const n = 30
		for i := 0; i < n; i++ {
			s := g.Spectrum(Normal, env)
			// Average of bins far from every peak.
			sum += (s[10] + s[16] + s[122] + s[350]) / 4
		}
		return sum / n
	}
	silent, noisy := floorOf(Silent), floorOf(Noisy)
	if noisy < 2*silent {
		t.Fatalf("noisy floor %v not above silent %v", noisy, silent)
	}
}

func TestTrainingSet(t *testing.T) {
	g := NewGenerator(DefaultParams())
	xs, labels := g.TrainingSet(40)
	if len(xs) != 40 || len(labels) != 40 {
		t.Fatal("sizes")
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("training labels must be the single normal class")
		}
	}
}

func TestTestStreamsMatchPaperComposition(t *testing.T) {
	g := NewGenerator(DefaultParams())

	sudden := g.TestSudden()
	if len(sudden.X) != StreamLen || sudden.DriftAt != 120 || sudden.Name != "sudden" {
		t.Fatal("sudden stream metadata")
	}
	for i, fn := range sudden.FromNew {
		if fn != (i >= 120) {
			t.Fatalf("sudden FromNew[%d] = %v", i, fn)
		}
	}

	grad := g.TestGradual()
	countNew := func(st *Stream, lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if st.FromNew[i] {
				n++
			}
		}
		return n
	}
	if countNew(grad, 0, 120) != 0 {
		t.Fatal("gradual: damage before drift")
	}
	if countNew(grad, 600, 700) != 100 {
		t.Fatal("gradual: old concept after 600")
	}
	if early, late := countNew(grad, 120, 300), countNew(grad, 420, 600); early >= late {
		t.Fatalf("gradual ramp wrong: %d vs %d", early, late)
	}

	reoc := g.TestReoccurring()
	for i, fn := range reoc.FromNew {
		if fn != (i >= 120 && i < 170) {
			t.Fatalf("reoccurring FromNew[%d] = %v", i, fn)
		}
	}
}

func TestDamagedSpectraAreDistinguishable(t *testing.T) {
	g := NewGenerator(DefaultParams())
	// Mean spectra of each condition must be farther apart than the
	// within-condition scatter, or no detector could work.
	meanOf := func(kind FanKind) []float64 {
		acc := make([]float64, Features)
		const n = 40
		for i := 0; i < n; i++ {
			for j, v := range g.Spectrum(kind, Silent) {
				acc[j] += 1.0 / n * v
			}
		}
		return acc
	}
	mn, mh, mc := meanOf(Normal), meanOf(Holes), meanOf(Chipped)
	dNH := mat.L1Dist(mn, mh)
	dNC := mat.L1Dist(mn, mc)
	var scatter float64
	base := meanOf(Normal)
	for i := 0; i < 10; i++ {
		scatter += mat.L1Dist(g.Spectrum(Normal, Silent), base)
	}
	scatter /= 10
	if dNH < scatter || dNC < scatter {
		t.Fatalf("damage shift (%v, %v) buried in scatter %v", dNH, dNC, scatter)
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	a := NewGenerator(DefaultParams())
	b := NewGenerator(DefaultParams())
	if mat.L1Dist(a.Spectrum(Normal, Silent), b.Spectrum(Normal, Silent)) != 0 {
		t.Fatal("same seed diverged")
	}
	p := DefaultParams()
	p.Seed = 7
	c := NewGenerator(p)
	if mat.L1Dist(a.Spectrum(Normal, Silent), c.Spectrum(Normal, Silent)) == 0 {
		t.Fatal("different seeds agree")
	}
}
