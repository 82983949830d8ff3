package edgedrift_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
)

// cloneFixture draws training data and a stream that drifts suddenly at
// sample 400 for C Gaussian classes in D dimensions.
func cloneFixture(t testing.TB, classes, dims int) (trainX [][]float64, trainY []int, stream [][]float64) {
	t.Helper()
	means := make([][]float64, classes)
	for c := range means {
		means[c] = make([]float64, dims)
		for j := range means[c] {
			means[c][j] = 5 * float64(c)
		}
	}
	old := synth.NewGaussian(means, 0.3)
	r := rng.New(uint64(17*classes + dims))
	trainX, trainY = synth.TrainingSet(old, 300, r)
	st, err := synth.Generate(old, synth.ShiftedGaussian(old, 4), 1400,
		synth.Spec{Kind: synth.Sudden, Start: 400}, r)
	if err != nil {
		t.Fatal(err)
	}
	return trainX, trainY, st.X
}

func fitCloneMonitor(t testing.TB, opts edgedrift.Options, xs [][]float64, ys []int) *edgedrift.Monitor {
	t.Helper()
	mon, err := edgedrift.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	return mon
}

func saveBytes(t testing.TB, mon *edgedrift.Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := mon.Save(&b, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func mustClone(t testing.TB, mon *edgedrift.Monitor) *edgedrift.Monitor {
	t.Helper()
	c, err := mon.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameResult compares two results field by field, NaN scores included.
func sameResult(a, b edgedrift.Result) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// TestMonitorCloneMatchesLoad: a clone of a loaded template is the
// monitor LoadMonitor builds from the same bytes — identical results
// over a stream that drifts and reconstructs, identical Save bytes and
// merge fingerprint afterwards — and its writes reach neither the
// template nor a sibling clone.
func TestMonitorCloneMatchesLoad(t *testing.T) {
	for _, prec := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Float32} {
		for _, classes := range []int{1, 2, 3} {
			for _, dims := range []int{3, 38, 511} {
				t.Run(fmt.Sprintf("%v/C%d/D%d", prec, classes, dims), func(t *testing.T) {
					xs, ys, stream := cloneFixture(t, classes, dims)
					fitted := fitCloneMonitor(t, edgedrift.Options{
						Classes: classes, Inputs: dims, Hidden: 22, Window: 50, NRecon: 300,
						Seed: 3, Precision: prec,
					}, xs, ys)
					art := saveBytes(t, fitted)
					load := func() *edgedrift.Monitor {
						m, err := edgedrift.LoadMonitor(bytes.NewReader(art))
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					tmpl, ref := load(), load()
					clone, sibling := mustClone(t, tmpl), mustClone(t, tmpl)
					if clone.MergeFingerprint() != ref.MergeFingerprint() {
						t.Fatal("clone's merge fingerprint differs from the loaded monitor's")
					}
					for i, x := range stream {
						if got, want := clone.Process(x), ref.Process(x); !sameResult(got, want) {
							t.Fatalf("sample %d: clone %+v, loaded %+v", i, got, want)
						}
					}
					if clone.Reconstructions() == 0 {
						t.Fatal("the stream never reconstructed; no writer ran")
					}
					if !bytes.Equal(saveBytes(t, clone), saveBytes(t, ref)) {
						t.Fatal("clone's Save bytes differ from the loaded monitor's")
					}
					if clone.MergeFingerprint() != ref.MergeFingerprint() {
						t.Fatal("clone's merge fingerprint moved")
					}
					for name, m := range map[string]*edgedrift.Monitor{"template": tmpl, "sibling": sibling} {
						if !bytes.Equal(saveBytes(t, m), art) {
							t.Fatalf("%s's Save bytes changed after a clone drifted", name)
						}
					}
				})
			}
		}
	}
}

// TestMonitorCloneContinuesStream: a clone of a fitted monitor carries
// what the artifact does not — guard policy, its repair scratch and
// counters, TrainDuringMonitor — and continues the stream exactly as
// the monitor itself does, through non-finite samples and a drift.
func TestMonitorCloneContinuesStream(t *testing.T) {
	xs, ys, stream := cloneFixture(t, 2, 3)
	dirty := make([][]float64, len(stream))
	for i, x := range stream {
		dirty[i] = x
		if i%97 == 5 {
			bad := append([]float64(nil), x...)
			bad[i%3] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
			dirty[i] = bad
		}
	}
	for _, guard := range []edgedrift.GuardPolicy{edgedrift.GuardReject, edgedrift.GuardClamp} {
		for _, train := range []bool{false, true} {
			t.Run(fmt.Sprintf("guard%d/train%v", guard, train), func(t *testing.T) {
				mon := fitCloneMonitor(t, edgedrift.Options{
					Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 5,
					Guard: guard, ClampLimit: 1e6, TrainDuringMonitor: train,
				}, xs, ys)
				for _, x := range stream[:100] {
					mon.Process(x)
				}
				clone := mustClone(t, mon)
				// The clean tail of the stream closes any reconstruction still
				// open, so both end in a state Save accepts.
				tail := stream[len(stream)-300:]
				for i, x := range append(dirty[100:], tail...) {
					if got, want := clone.Process(x), mon.Process(x); !sameResult(got, want) {
						t.Fatalf("sample %d: clone %+v, monitor %+v", 100+i, got, want)
					}
				}
				if clone.Reconstructions() == 0 {
					t.Fatal("the stream never reconstructed")
				}
				if got, want := clone.Health(), mon.Health(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("health: clone %v, monitor %v", got, want)
				}
				if !bytes.Equal(saveBytes(t, clone), saveBytes(t, mon)) {
					t.Fatal("Save bytes differ")
				}
			})
		}
	}
}

// TestMonitorCloneRefusals: Clone refuses the states whose continuation
// it could not copy exactly, and a refusal leaves the monitor as it was.
func TestMonitorCloneRefusals(t *testing.T) {
	xs, ys, stream := cloneFixture(t, 2, 3)
	opts := edgedrift.Options{Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 5}
	unfit, err := edgedrift.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unfit.Clone(); err == nil {
		t.Fatal("Clone before Fit succeeded")
	}
	mon := fitCloneMonitor(t, opts, xs, ys)
	own := mon.MemoryBytes()
	if err := mon.Demote(edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Clone(); err == nil {
		t.Fatal("Clone of a demoted monitor succeeded")
	}
	if err := mon.Promote(); err != nil {
		t.Fatal(err)
	}
	for _, x := range stream {
		if mon.Process(x); mon.PhaseNow() == edgedrift.Reconstructing {
			break
		}
	}
	if mon.PhaseNow() != edgedrift.Reconstructing {
		t.Fatal("the stream never reached reconstruction")
	}
	if _, err := mon.Clone(); err == nil {
		t.Fatal("Clone during reconstruction succeeded")
	}
	if got := mon.MemoryBytes(); got != own {
		t.Fatalf("refused clones left the monitor auditing %d B, want its own %d B", got, own)
	}
}

// TestMonitorCloneFootprint pins what a new stream costs at the serve
// tier's member shape (NSL-KDD: C=2, D=38, H=22). A fresh clone's audit
// is its own vectors only — the recent centroids, each instance's
// activations h and reconstruction e, the per-instance scores, the
// counts and the scalars — since it shares the projection, β, P and the
// trained centroids, and takes the RLS scratch P·h only at its first
// write. Clone allocates those vectors plus the structs that hold them
// in 22 allocations: 3,832 B on 64-bit targets (two oselm models of
// 416 B with h and e, the 640 B detector, the centroids and counts, the
// Monitor, model and histogram headers), against 71 allocations and
// 12.8 kB when a clone round-tripped its detector through
// SaveState/LoadState and allocated the scratch up front. The bytes are
// read as a benchmark's B/op, averaged over enough clones that what the
// rest of the process allocates meanwhile does not count; the 4 kB
// bound leaves 264 B of slack.
func TestMonitorCloneFootprint(t *testing.T) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(nslkddArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	const c, d, h = 2, 38, 22
	clone := mustClone(t, tmpl)
	want := 8*c*d + // recent centroids
		c*8*(h+d) + // each instance's h and e
		8*c + // the model's per-instance scores
		2*8*c + // num and baseNum
		16*8 // thresholds, window state, accumulators
	if got := clone.MemoryBytes(); got != want {
		t.Fatalf("a fresh clone audits %d B, want %d B", got, want)
	}

	var cerr error
	const wantAllocs = 22
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := tmpl.Clone(); err != nil {
			cerr = err
		}
	}); cerr != nil {
		t.Fatal(cerr)
	} else if allocs != wantAllocs {
		t.Errorf("Monitor.Clone makes %v allocations per member, want %d", allocs, wantAllocs)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tmpl.Clone(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatal("the Clone benchmark failed")
	}
	perClone := r.AllocedBytesPerOp()
	t.Logf("Monitor.Clone allocates %d B per member over %d clones; a fresh member audits %d B", perClone, r.N, want)
	const bound = 4096
	if perClone > bound {
		t.Fatalf("Monitor.Clone allocates %d B per member, want at most %d B", perClone, bound)
	}
}
