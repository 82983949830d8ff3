package edgedrift_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
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

// TestCloneFrameWritesStayPrivate: a clone shares its template's
// options, configurations and model frames by pointer, so each writer
// of them takes a private copy first. Pinning one clone's θ_error and
// running it through a demotion and back must leave the template and a
// sibling clone — their thresholds, configuration and every result over
// a stream that drifts and reconstructs — bit-identical to a monitor
// loaded from the same bytes that was never cloned.
func TestCloneFrameWritesStayPrivate(t *testing.T) {
	art := nslkddArtifact(t)
	load := func() *edgedrift.Monitor {
		m, err := edgedrift.LoadMonitor(bytes.NewReader(art))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tmpl, ref := load(), load()
	writer, sibling := mustClone(t, tmpl), mustClone(t, tmpl)
	stream := nslkdd.Generate(nslkdd.DefaultParams()).TestX
	if err := writer.Detector().SetErrorThreshold(ref.Detector().ThetaError() / 2); err != nil {
		t.Fatal(err)
	}
	if err := writer.Demote(edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	for _, x := range stream[:200] {
		writer.Process(x)
	}
	if err := writer.Promote(); err != nil {
		t.Fatal(err)
	}
	if writer.Detector().ThetaError() == ref.Detector().ThetaError() {
		t.Fatal("SetErrorThreshold did not reach the clone it was called on")
	}
	for name, m := range map[string]*edgedrift.Monitor{"template": tmpl, "sibling": sibling} {
		if m.Detector().Config() != ref.Detector().Config() {
			t.Fatalf("the %s's detector configuration changed: %+v, want %+v", name, m.Detector().Config(), ref.Detector().Config())
		}
		if m.Detector().ThetaError() != ref.Detector().ThetaError() {
			t.Fatalf("the %s's θ_error changed", name)
		}
	}
	for i, x := range stream {
		want := ref.Process(x)
		for name, m := range map[string]*edgedrift.Monitor{"template": tmpl, "sibling": sibling} {
			if got := m.Process(x); !sameResult(got, want) {
				t.Fatalf("sample %d: the %s gave %+v, want %+v", i, name, got, want)
			}
		}
	}
	if ref.Detector().Reconstructions() == 0 {
		t.Fatal("the stream never reconstructed")
	}
	for name, m := range map[string]*edgedrift.Monitor{"template": tmpl, "sibling": sibling} {
		if m.Detector().ThetaError() != ref.Detector().ThetaError() || m.Detector().ThetaDrift() != ref.Detector().ThetaDrift() {
			t.Fatalf("the %s's thresholds drifted from the reference", name)
		}
		if !bytes.Equal(saveBytes(t, m), saveBytes(t, ref)) {
			t.Fatalf("the %s's Save bytes differ from the reference", name)
		}
	}
}

// TestMonitorCloneFootprint pins what a new stream costs at the serve
// tier's member shape (NSL-KDD: C=2, D=38, H=22). A fresh clone's audit
// is its own state only — the recent centroids, the counts and the
// scalars — since it shares the configuration, the projection, β, P,
// the trained centroids and the scratch list its calls borrow their
// working sets from. Clone allocates that state plus the structs that
// hold it in 10 allocations, 1,728 B on 64-bit targets: the Monitor
// (64 B), its RNG (48 B), the model (64 B), its two autoencoders
// (32 B) and their two 72 B models in one slab (144 B), the 504 B
// detector (512 B), the C×D recent centroids (640 B), the counts
// (32 B) and the score histogram (64 + 128 B). Each clone used to copy
// the Options, the detector, model and instance configurations (456 B)
// and hold its autoencoders and models one allocation each: 17
// allocations and 2,488 B, and before that 22 allocations and 3,832 B
// with its own working sets. The bytes are read as a benchmark's B/op,
// averaged over enough clones that what the rest of the process
// allocates meanwhile does not count; the 1,850 B bound leaves 122 B of
// slack and fails the old layout. The fan shape (C=1, D=511) is pinned
// beside it: 10 allocations and 5,088 B, bounded at 5,300 B (212 B of
// slack), where the old layout made 14 and 5,624 B.
func TestMonitorCloneFootprint(t *testing.T) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(nslkddArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	const c, d = 2, 38
	clone := mustClone(t, tmpl)
	want := 8*c*d + // recent centroids
		2*8*c + // num and baseNum
		16*8 // thresholds, window state, accumulators
	if got := clone.MemoryBytes(); got != want {
		t.Fatalf("a fresh clone audits %d B, want %d B", got, want)
	}
	fan, _ := fanPinStream(t)
	for _, tc := range []struct {
		name       string
		tmpl       *edgedrift.Monitor
		allocs     float64
		bytesBound int64
	}{
		{"D38", tmpl, 10, 1850},
		{"D511", fan, 10, 5300},
	} {
		allocs, perClone := cloneCost(t, tc.tmpl)
		t.Logf("%s: Monitor.Clone makes %v allocations, %d B per member", tc.name, allocs, perClone)
		if allocs != tc.allocs {
			t.Errorf("%s: Monitor.Clone makes %v allocations per member, want %v", tc.name, allocs, tc.allocs)
		}
		if perClone > tc.bytesBound {
			t.Errorf("%s: Monitor.Clone allocates %d B per member, want at most %d B", tc.name, perClone, tc.bytesBound)
		}
	}
}

// cloneCost returns the allocations and bytes one Clone of tmpl makes.
func cloneCost(t *testing.T, tmpl *edgedrift.Monitor) (float64, int64) {
	t.Helper()
	var cerr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tmpl.Clone(); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		t.Fatal(cerr)
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
	return allocs, r.AllocedBytesPerOp()
}

// TestCloneHeapGrowthPerMember measures what a member cloned from one
// template really costs the heap, structs and registration included:
// clones registered into a fleet, with the live heap read after a GC
// before and after, at the NSL-KDD shape (4,096 clones of C=2, D=38)
// and the fan shape (2,048 clones of C=1, D=511). An NSL-KDD clone grew
// the heap by ~4,040 B when it held its own working sets, and by
// ~2,690 B once it borrowed them but still copied its configurations;
// sharing those brings it to ~1,890 B, and the 2,050 B bound leaves
// ~160 B of slack and fails both old layouts. A fan clone grows it by
// ~5,240 B (~5,810 B with copied configurations); the 5,450 B bound
// leaves ~210 B of slack.
func TestCloneHeapGrowthPerMember(t *testing.T) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(nslkddArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	fan, _ := fanPinStream(t)
	for _, tc := range []struct {
		name     string
		tmpl     *edgedrift.Monitor
		n, bound int64
	}{
		{"D38", tmpl, 4096, 2050},
		{"D511", fan, 2048, 5450},
	} {
		ids := make([]string, tc.n)
		for i := range ids {
			ids[i] = fmt.Sprintf("stream-%04d", i)
		}
		f := edgedrift.NewFleet(edgedrift.FleetConfig{})
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for _, id := range ids {
			if err := f.Add(id, mustClone(t, tc.tmpl)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(f)
		perMember := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / tc.n
		t.Logf("%s: %d clones grow the heap by %d B per member; the fleet audits %d B per member",
			tc.name, tc.n, perMember, int64(f.MemoryBytes())/tc.n)
		if perMember >= tc.bound {
			t.Errorf("%s: a clone grows the heap by %d B, want less than %d B", tc.name, perMember, tc.bound)
		}
	}
}
