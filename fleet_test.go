package edgedrift_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
)

type fleetFixture struct {
	trainX [][]float64
	trainY []int
	stream [][]float64
}

func newFleetFixture(t testing.TB) *fleetFixture {
	t.Helper()
	oldConcept := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	newConcept := synth.ShiftedGaussian(oldConcept, 4)
	r := rng.New(7)
	trainX, trainY := synth.TrainingSet(oldConcept, 300, r)
	st, err := synth.Generate(oldConcept, newConcept, 3000,
		synth.Spec{Kind: synth.Sudden, Start: 1000}, r)
	if err != nil {
		t.Fatal(err)
	}
	return &fleetFixture{trainX: trainX, trainY: trainY, stream: st.X}
}

func (fx *fleetFixture) monitor(t testing.TB, seed uint64) *edgedrift.Monitor {
	t.Helper()
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(fx.trainX, fx.trainY); err != nil {
		t.Fatal(err)
	}
	return mon
}

// TestFleetMatchesMonitor locks the single-stream-special-case claim:
// a stream driven through the fleet in odd-sized batches produces
// bit-identical results to the same monitor driven directly.
func TestFleetMatchesMonitor(t *testing.T) {
	fx := newFleetFixture(t)
	direct := fx.monitor(t, 1)
	var want []edgedrift.Result
	for _, x := range fx.stream {
		want = append(want, direct.Process(x))
	}

	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	var got []edgedrift.Result
	for lo := 0; lo < len(fx.stream); lo += 37 {
		hi := lo + 37
		if hi > len(fx.stream) {
			hi = len(fx.stream)
		}
		rs, err := f.ProcessBatch("s", fx.stream[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet results differ from the monitor driven directly")
	}
	if err := f.Do("s", func(m *edgedrift.Monitor) error {
		if !reflect.DeepEqual(m.DriftEvents(), direct.DriftEvents()) {
			return errors.New("drift events differ")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetConcurrentStreamsDeterministic drives each stream from its
// own goroutine (the supported concurrency pattern) and asserts every
// stream's results match its own single-threaded reference.
func TestFleetConcurrentStreamsDeterministic(t *testing.T) {
	fx := newFleetFixture(t)
	const streams = 4
	f := edgedrift.NewFleet(edgedrift.FleetConfig{Shards: 2})
	want := make([][]edgedrift.Result, streams)
	for i := 0; i < streams; i++ {
		ref := fx.monitor(t, uint64(i+1))
		for _, x := range fx.stream {
			want[i] = append(want[i], ref.Process(x))
		}
		if err := f.Add(fmt.Sprintf("s%d", i), fx.monitor(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]edgedrift.Result, streams)
	var wg sync.WaitGroup
	errc := make(chan error, streams)
	for i := 0; i < streams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := f.ProcessBatch(fmt.Sprintf("s%d", i), fx.stream)
			if err != nil {
				errc <- err
				return
			}
			got[i] = rs
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("stream %d: concurrent results differ from reference", i)
		}
	}
}

// TestFleetSaveLoad round-trips a whole fleet mid-stream and checks the
// loaded fleet continues bit-identically; then verifies that corruption
// anywhere in the artifact is caught at load.
func TestFleetSaveLoad(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for i := 0; i < 3; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), fx.monitor(t, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	// The tail crosses the true drift (sample 1000) and the full NRecon
	// reconstruction, so the round trip must preserve everything that
	// decides post-reconstruction behaviour — including the calibrated
	// θ_error pin, which the v2 detector format lost.
	head, tail := fx.stream[:500], fx.stream[500:2500]
	for _, id := range f.IDs() {
		if _, err := f.ProcessBatch(id, head); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}

	g, err := edgedrift.LoadFleet(bytes.NewReader(buf.Bytes()), edgedrift.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.IDs(), f.IDs()) {
		t.Fatalf("IDs after load: %v", g.IDs())
	}
	for _, id := range f.IDs() {
		wantRS, err := f.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		gotRS, err := g.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRS, wantRS) {
			t.Fatalf("%s: loaded fleet diverges from original", id)
		}
	}

	art := buf.Bytes()
	for _, pos := range []int{0, 5, len(art) / 4, len(art) / 2, 3 * len(art) / 4, len(art) - 1} {
		bad := append([]byte(nil), art...)
		bad[pos] ^= 0x20
		if _, err := edgedrift.LoadFleet(bytes.NewReader(bad), edgedrift.FleetConfig{}); !errors.Is(err, edgedrift.ErrBadFormat) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadFormat", pos, err)
		}
	}
	if _, err := edgedrift.LoadFleet(bytes.NewReader(art[:len(art)-3]), edgedrift.FleetConfig{}); !errors.Is(err, edgedrift.ErrBadFormat) {
		t.Fatal("truncated artifact loaded without error")
	}
}

// TestFleetSaveFileLoadFleetFileRoundTrip drives the file-level fleet
// checkpoint path: SaveFile writes atomically (no stray temp files, and
// a rename over an existing artifact works), and LoadFleetFile restores
// a fleet that re-saves byte-identically and continues every stream
// bit-exactly.
func TestFleetSaveFileLoadFleetFileRoundTrip(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for i := 0; i < 2; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), fx.monitor(t, uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	head, tail := fx.stream[:500], fx.stream[500:1500]
	for _, id := range f.IDs() {
		if _, err := f.ProcessBatch(id, head); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "fleet.ed")
	if err := f.SaveFile(path, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	g, err := edgedrift.LoadFleetFile(path, edgedrift.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := g.Save(&got, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("loaded fleet does not re-save byte-identically")
	}
	for _, id := range f.IDs() {
		wantRS, err := f.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		gotRS, err := g.ProcessBatch(id, tail)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRS, wantRS) {
			t.Fatalf("%s: loaded fleet diverges from original", id)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the artifact", len(entries))
	}
	if err := f.SaveFile(path, edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	if _, err := edgedrift.LoadFleetFile(path, edgedrift.FleetConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFleetFileCorruptMatchesErrBadFormat checks a damaged fleet
// artifact on disk fails with ErrBadFormat and an error naming the file.
func TestLoadFleetFileCorruptMatchesErrBadFormat(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("m0", fx.monitor(t, 42)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.ed")
	if err := f.SaveFile(path, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = edgedrift.LoadFleetFile(path, edgedrift.FleetConfig{})
	if !errors.Is(err, edgedrift.ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want it to name %s", err, path)
	}
}

// TestFleetSteadyStateAllocs locks the fleet's per-sample allocation
// behaviour: processing an in-distribution batch through a registered
// monitor with a reused result buffer allocates nothing.
func TestFleetSteadyStateAllocs(t *testing.T) {
	fx := newFleetFixture(t)
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := f.Add("s", fx.monitor(t, 1)); err != nil {
		t.Fatal(err)
	}
	batch := fx.stream[:100] // pre-drift, in-distribution
	dst := make([]edgedrift.Result, 0, len(batch))
	warm := func() {
		var err error
		dst, err = f.ProcessBatchInto(dst[:0], "s", batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("fleet steady-state allocates %.1f times per %d-sample batch, want 0", n, len(batch))
	}
}

// TestFleetSealedMemberForwarders: once Remove or ExportMember has
// sealed a member, the merge forwarders fail with the internal fleet's
// unknown-stream error and leave the fleet as it was.
func TestFleetSealedMemberForwarders(t *testing.T) {
	fx := newFleetFixture(t)
	for _, seal := range []string{"Remove", "ExportMember"} {
		f := edgedrift.NewFleet(edgedrift.FleetConfig{})
		if err := f.AddCohort("s", fx.monitor(t, 1), "c"); err != nil {
			t.Fatal(err)
		}
		state, _, err := f.ExportMergeState("s")
		if err != nil {
			t.Fatal(err)
		}
		if seal == "Remove" {
			f.Remove("s")
		} else if _, err := f.ExportMember("s"); err != nil {
			t.Fatal(err)
		}
		want := `fleet: unknown stream "s"`
		if _, _, err := f.ExportMergeState("s"); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: ExportMergeState err = %v, want %s", seal, err, want)
		}
		if err := f.MergeSeedMember("s", [][]byte{state}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: MergeSeedMember err = %v, want %s", seal, err, want)
		}
		if f.Len() != 0 || len(f.CohortMembers("c")) != 0 {
			t.Fatalf("%s: a sealed member came back: Len %d, cohort %v", seal, f.Len(), f.CohortMembers("c"))
		}
	}
}

// TestFleetCooperativeWarmRecovery drives the public cooperative
// surface end to end with real monitors: same-seed members fingerprint
// identically, peers that adapted to the new concept donate state when
// the laggard detects its drift, and the health roll-up records the
// warm path.
func TestFleetCooperativeWarmRecovery(t *testing.T) {
	fx := newFleetFixture(t)
	fleet := edgedrift.NewFleet(edgedrift.FleetConfig{WarmRecovery: true})
	for _, id := range []string{"t", "p0", "p1"} {
		if err := fleet.AddCohort(id, fx.monitor(t, 1), "cohort-a"); err != nil {
			t.Fatal(err)
		}
	}
	fp0, err := fleet.MemberFingerprint("t")
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := fleet.MemberFingerprint("p0")
	if err != nil || fp0 != fp1 {
		t.Fatalf("same-seed members fingerprint differently: %x vs %x (%v)", fp0, fp1, err)
	}

	// Peers see the whole stream (drift at 1000, NRecon 300) and settle
	// into the new concept; the target lags behind, still pre-drift.
	for _, id := range []string{"p0", "p1"} {
		if _, err := fleet.ProcessBatch(id, fx.stream); err != nil {
			t.Fatal(err)
		}
	}

	// Now the target catches up and hits the drift; WarmRecovery should
	// seed its rebuild from the adapted peers.
	rs, err := fleet.ProcessBatch("t", fx.stream)
	if err != nil {
		t.Fatal(err)
	}
	drifted := false
	for _, r := range rs {
		drifted = drifted || r.DriftDetected
	}
	if !drifted {
		t.Fatal("target never detected the drift")
	}
	h := fleet.Health()
	if h.WarmRecoveries == 0 {
		t.Fatalf("no warm recovery recorded: %+v", h)
	}
	if h.Merges == 0 {
		t.Fatalf("no merge recorded: %+v", h)
	}
	if h.ColdFallbacks != 0 {
		t.Fatalf("unexpected cold fallback with two adapted peers: %+v", h)
	}

	// The manual exchange surface round-trips state between members.
	state, fprint, err := fleet.ExportMergeState("p0")
	if err != nil {
		t.Fatal(err)
	}
	if fprint != fp0 {
		t.Fatalf("export fingerprint %x != member fingerprint %x", fprint, fp0)
	}
	if err := fleet.MergeSeedMember("p1", [][]byte{state}); err != nil {
		t.Fatal(err)
	}

	// Cohort membership is inspectable.
	if got, err := fleet.Cohort("t"); err != nil || got != "cohort-a" {
		t.Fatalf("Cohort(t) = %q, %v", got, err)
	}
	if n := len(fleet.CohortMembers("cohort-a")); n != 3 {
		t.Fatalf("cohort members = %d", n)
	}
}
