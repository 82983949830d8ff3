package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/oselm"
)

// mergeStage is a countStage that additionally carries mergeable state:
// one uint64 "model value" whose merge semantics are summation. It
// stands in for a full Detector so cohort bookkeeping, warm-recovery
// policy and the FLEET3 container can be tested without training
// models; merge exactness itself is pinned in internal/oselm.
type mergeStage struct {
	countStage
	mu     sync.Mutex
	val    uint64
	fprint uint64
	phase  core.Phase
	merges int
}

func newMergeStage(val, fprint uint64) *mergeStage {
	return &mergeStage{val: val, fprint: fprint, phase: core.Monitoring}
}

func (m *mergeStage) MergeFingerprint() uint64 { return m.fprint }

func (m *mergeStage) PhaseNow() core.Phase {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase
}

func (m *mergeStage) setPhase(p core.Phase) {
	m.mu.Lock()
	m.phase = p
	m.mu.Unlock()
}

func (m *mergeStage) ExportMergeState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], m.val)
	return b[:], nil
}

func (m *mergeStage) MergeSeed(states [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum uint64
	for _, st := range states {
		if len(st) != 8 {
			return &oselm.MergeError{Reason: fmt.Sprintf("state is %d bytes, want 8", len(st))}
		}
		sum += binary.LittleEndian.Uint64(st)
	}
	m.val = sum
	m.merges++
	return nil
}

func (m *mergeStage) value() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val
}

func (m *mergeStage) mergeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.merges
}

const mergeKind byte = 7

func encMerge(id string, s core.Streaming, w io.Writer) (byte, error) {
	m := s.(*mergeStage)
	m.mu.Lock()
	defer m.mu.Unlock()
	err := binary.Write(w, binary.LittleEndian, []uint64{m.val, m.fprint})
	return mergeKind, err
}

func decMerge(id string, kind byte, r io.Reader) (core.Streaming, error) {
	if kind != mergeKind {
		return nil, fmt.Errorf("unexpected member kind %d", kind)
	}
	var u [2]uint64
	if err := binary.Read(r, binary.LittleEndian, u[:]); err != nil {
		return nil, err
	}
	return newMergeStage(u[0], u[1]), nil
}

func TestCohortRegistry(t *testing.T) {
	f := New(Config{})
	for _, id := range []string{"a", "b", "c"} {
		if err := f.AddMember(id, newMergeStage(1, 99), MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Add("solo", newMergeStage(1, 99)); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Cohort("a"); got != "fans" {
		t.Fatalf("Cohort(a) = %q, want fans", got)
	}
	if got, _ := f.Cohort("solo"); got != "" {
		t.Fatalf("Cohort(solo) = %q, want empty", got)
	}
	if got := f.CohortMembers("fans"); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("CohortMembers = %v", got)
	}
	if _, _, ok := f.Remove("b"); !ok {
		t.Fatal("Remove failed")
	}
	if got := f.CohortMembers("fans"); len(got) != 2 {
		t.Fatalf("CohortMembers after Remove = %v", got)
	}
	if got := f.CohortMembers("nosuch"); len(got) != 0 {
		t.Fatalf("CohortMembers(nosuch) = %v", got)
	}
}

// TestCohortRequiresMerger pins the loud rejection: a detect-only stage
// (no mergeable state — the Q16.16 port's shape) cannot join a cohort,
// and the error matches oselm.ErrMergeIncompatible.
func TestCohortRequiresMerger(t *testing.T) {
	f := New(Config{})
	err := f.AddMember("q", &countStage{}, MemberConfig{Cohort: "fans"})
	if err == nil {
		t.Fatal("detect-only member joined a cohort")
	}
	if !errors.Is(err, oselm.ErrMergeIncompatible) {
		t.Fatalf("err = %v, want ErrMergeIncompatible", err)
	}
	if f.Len() != 0 {
		t.Fatal("rejected member was registered anyway")
	}
	// Without a cohort the same stage is fine.
	if err := f.Add("q", &countStage{}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRecovery drives a member to a drift detection and checks the
// cooperative seed: the drifted member's model is replaced by the merge
// of its cohort peers' states, and the recovery is counted exactly once
// at the fleet level and once on the member (via the merge counter).
func TestWarmRecovery(t *testing.T) {
	f := New(Config{WarmRecovery: true})
	target := newMergeStage(1, 99)
	target.driftEvery = 3
	peers := []*mergeStage{newMergeStage(10, 99), newMergeStage(20, 99)}
	if err := f.AddMember("t", target, MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if err := f.AddMember(fmt.Sprintf("p%d", i), p, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ProcessBatch("t", samples(3, 0)); err != nil {
		t.Fatal(err)
	}
	if got := target.value(); got != 30 {
		t.Fatalf("seeded value = %d, want 30 (sum of peers)", got)
	}
	if got := target.mergeCount(); got != 1 {
		t.Fatalf("merge count = %d, want 1", got)
	}
	m := f.Metrics()
	if m.WarmRecoveries != 1 || m.ColdFallbacks != 0 {
		t.Fatalf("WarmRecoveries=%d ColdFallbacks=%d, want 1/0", m.WarmRecoveries, m.ColdFallbacks)
	}
	if h := f.Health(); h.WarmRecoveries != 1 {
		t.Fatalf("health WarmRecoveries = %d, want 1", h.WarmRecoveries)
	}
}

// TestWarmRecoveryOffByDefault: without Config.WarmRecovery a drift
// changes nothing cooperatively — the pre-cooperation behaviour.
func TestWarmRecoveryOffByDefault(t *testing.T) {
	f := New(Config{})
	target := newMergeStage(1, 99)
	target.driftEvery = 3
	peer := newMergeStage(10, 99)
	if err := f.AddMember("t", target, MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("p", peer, MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("t", samples(3, 0)); err != nil {
		t.Fatal(err)
	}
	if got := target.value(); got != 1 {
		t.Fatalf("value changed to %d with cooperation off", got)
	}
	if m := f.Metrics(); m.WarmRecoveries != 0 || m.ColdFallbacks != 0 {
		t.Fatalf("counters moved with cooperation off: %+v", m)
	}
}

// TestColdFallback covers every no-donor path: no cohort peers at all,
// fingerprint-incompatible peers, and mid-reconstruction peers. Each
// drift must fall back to cold reconstruction, counted, and the
// ineligible peers must be counted as skipped.
func TestColdFallback(t *testing.T) {
	t.Run("no peers", func(t *testing.T) {
		f := New(Config{WarmRecovery: true})
		target := newMergeStage(1, 99)
		target.driftEvery = 3
		if err := f.AddMember("t", target, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch("t", samples(3, 0)); err != nil {
			t.Fatal(err)
		}
		if m := f.Metrics(); m.ColdFallbacks != 1 || m.WarmRecoveries != 0 {
			t.Fatalf("ColdFallbacks=%d WarmRecoveries=%d, want 1/0", m.ColdFallbacks, m.WarmRecoveries)
		}
	})
	t.Run("incompatible fingerprint", func(t *testing.T) {
		f := New(Config{WarmRecovery: true})
		target := newMergeStage(1, 99)
		target.driftEvery = 3
		if err := f.AddMember("t", target, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddMember("p", newMergeStage(10, 77), MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch("t", samples(3, 0)); err != nil {
			t.Fatal(err)
		}
		m := f.Metrics()
		if m.ColdFallbacks != 1 || m.PeersSkipped != 1 || m.WarmRecoveries != 0 {
			t.Fatalf("metrics = %+v, want cold=1 skipped=1 warm=0", m)
		}
		if target.value() != 1 {
			t.Fatal("incompatible peer state leaked into the target")
		}
	})
	t.Run("reconstructing peer excluded", func(t *testing.T) {
		f := New(Config{WarmRecovery: true})
		target := newMergeStage(1, 99)
		target.driftEvery = 3
		busy := newMergeStage(10, 99)
		busy.setPhase(core.Reconstructing)
		ok := newMergeStage(20, 99)
		if err := f.AddMember("t", target, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddMember("busy", busy, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if err := f.AddMember("ok", ok, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch("t", samples(3, 0)); err != nil {
			t.Fatal(err)
		}
		if got := target.value(); got != 20 {
			t.Fatalf("seed = %d, want 20 (only the monitoring peer)", got)
		}
		m := f.Metrics()
		if m.WarmRecoveries != 1 || m.PeersSkipped != 1 {
			t.Fatalf("metrics = %+v, want warm=1 skipped=1", m)
		}
	})
}

func TestExportMergeStateErrors(t *testing.T) {
	f := New(Config{})
	if err := f.Add("plain", &countStage{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ExportMergeState("plain"); err == nil {
		t.Fatal("export from a detect-only member succeeded")
	} else if !errors.Is(err, oselm.ErrMergeIncompatible) {
		t.Fatalf("err = %v, want ErrMergeIncompatible", err)
	}
	busy := newMergeStage(1, 99)
	busy.setPhase(core.Reconstructing)
	if err := f.Add("busy", busy); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ExportMergeState("busy"); err == nil {
		t.Fatal("export from a reconstructing member succeeded")
	}
	if _, _, err := f.ExportMergeState("nosuch"); err == nil {
		t.Fatal("export from an unknown member succeeded")
	}
	okm := newMergeStage(42, 99)
	if err := f.Add("ok", okm); err != nil {
		t.Fatal(err)
	}
	st, fp, err := f.ExportMergeState("ok")
	if err != nil {
		t.Fatal(err)
	}
	if fp != 99 || binary.LittleEndian.Uint64(st) != 42 {
		t.Fatalf("exported state=%v fprint=%d", st, fp)
	}
	if err := f.MergeSeedMember("plain", [][]byte{st}); !errors.Is(err, oselm.ErrMergeIncompatible) {
		t.Fatalf("seed into detect-only member: err = %v, want ErrMergeIncompatible", err)
	}
}

func TestAntiEntropy(t *testing.T) {
	f := New(Config{})
	ms := []*mergeStage{newMergeStage(1, 99), newMergeStage(2, 99), newMergeStage(4, 99)}
	for i, m := range ms {
		if err := f.AddMember(fmt.Sprintf("m%d", i), m, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	seeded, err := f.AntiEntropy("fans")
	if err != nil {
		t.Fatal(err)
	}
	if seeded != 3 {
		t.Fatalf("seeded = %d, want 3", seeded)
	}
	for i, m := range ms {
		if got := m.value(); got != 7 {
			t.Fatalf("m%d converged to %d, want 7 (sum of all)", i, got)
		}
	}
	if _, err := f.AntiEntropy("nosuch"); err == nil {
		t.Fatal("anti-entropy on an unknown cohort succeeded")
	}
	// A lone member has nobody to converge with.
	g := New(Config{})
	if err := g.AddMember("solo", newMergeStage(1, 1), MemberConfig{Cohort: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AntiEntropy("c"); err == nil {
		t.Fatal("anti-entropy with one member succeeded")
	}
}

// TestFleet4CohortRoundTrip pins the current container: cohorts survive
// save/load, the loaded fleet re-derives fingerprints from the decoded
// stages, and save-load-save is byte-identical.
func TestFleet4CohortRoundTrip(t *testing.T) {
	f := New(Config{})
	if err := f.AddMember("a", newMergeStage(5, 99), MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("b", newMergeStage(6, 99), MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("c", newMergeStage(7, 42)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, encMerge); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("FLEET4")) {
		t.Fatal("Save did not write a FLEET4 container")
	}

	g := New(Config{})
	if err := g.Load(bytes.NewReader(buf.Bytes()), decMerge); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]string{"a": "fans", "b": "fans", "c": ""} {
		if got, err := g.Cohort(id); err != nil || got != want {
			t.Fatalf("Cohort(%s) = %q, %v; want %q", id, got, err, want)
		}
	}
	if got := g.CohortMembers("fans"); len(got) != 2 {
		t.Fatalf("CohortMembers after load = %v", got)
	}
	if fp, _ := g.MemberFingerprint("a"); fp != 99 {
		t.Fatalf("fingerprint re-derived as %d, want 99", fp)
	}

	var buf2 bytes.Buffer
	if err := g.Save(&buf2, encMerge); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

// TestFleet3Corruption extends the byte-flip sweep to a container with
// cohort fields: every flip — cohort bytes and fingerprint included —
// must be caught by a checksum.
func TestFleet3Corruption(t *testing.T) {
	f := New(Config{})
	if err := f.AddMember("a", newMergeStage(5, 99), MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, encMerge); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()
	for pos := 0; pos < len(art); pos++ {
		bad := append([]byte(nil), art...)
		bad[pos] ^= 0x40
		g := New(Config{})
		if err := g.Load(bytes.NewReader(bad), decMerge); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadFormat", pos, err)
		}
	}
}

// TestCohortMigrationRoundTrip: ExportMember carries the cohort out and
// ImportMember re-joins it, so a migrated stream keeps cooperating.
func TestCohortMigrationRoundTrip(t *testing.T) {
	f := New(Config{})
	if err := f.AddMember("s", newMergeStage(5, 99), MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	st, err := f.ExportMember("s", encMerge)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cohort != "fans" || st.Kind != mergeKind {
		t.Fatalf("exported kind=%d cohort=%q", st.Kind, st.Cohort)
	}
	if got := f.CohortMembers("fans"); len(got) != 0 {
		t.Fatalf("cohort still lists exported member: %v", got)
	}
	g := New(Config{})
	if err := g.ImportMember(st, decMerge); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Cohort("s"); got != "fans" {
		t.Fatalf("imported cohort = %q", got)
	}
	if got := g.CohortMembers("fans"); len(got) != 1 || got[0] != "s" {
		t.Fatalf("cohort after import = %v", got)
	}
}

// TestCoopConcurrency races batches (with warm recovery firing), state
// export, anti-entropy and Remove against each other. Run under -race;
// the assertions are liveness plus no lost member.
func TestCoopConcurrency(t *testing.T) {
	f := New(Config{WarmRecovery: true, Shards: 4})
	const n = 8
	for i := 0; i < n; i++ {
		st := newMergeStage(uint64(i+1), 99)
		st.driftEvery = 5
		if err := f.AddMember(fmt.Sprintf("m%d", i), st, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				if _, err := f.ProcessBatch(id, samples(3, 0)); err != nil {
					return // removed mid-run; fine
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			for i := 0; i < n; i++ {
				f.ExportMergeState(fmt.Sprintf("m%d", i)) //nolint:errcheck
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			f.AntiEntropy("fans") //nolint:errcheck
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Remove("m0")
		f.AddMember("m0b", newMergeStage(3, 99), MemberConfig{Cohort: "fans"}) //nolint:errcheck
	}()
	wg.Wait()
	if got := len(f.CohortMembers("fans")); got != n {
		t.Fatalf("cohort has %d members after churn, want %d", got, n)
	}
}

// TestStartAntiEntropy exercises the periodic driver end to end.
func TestStartAntiEntropy(t *testing.T) {
	f := New(Config{})
	ms := []*mergeStage{newMergeStage(1, 99), newMergeStage(2, 99)}
	for i, m := range ms {
		if err := f.AddMember(fmt.Sprintf("m%d", i), m, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	stop := f.StartAntiEntropy(time.Millisecond)
	defer stop()
	// The additive mergeStage doubles on every reconcile round, so the
	// values never settle — the periodic driver's job is only to keep
	// calling AntiEntropy. Wait until both members have been reseeded a
	// few times; the single-round convergence semantics are pinned by
	// TestAntiEntropy.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ms[0].mergeCount() >= 2 && ms[1].mergeCount() >= 2 {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("periodic rounds never ran: merges %d, %d", ms[0].mergeCount(), ms[1].mergeCount())
}

// TestStartAntiEntropyRestart: after stop() returns, a second
// StartAntiEntropy must drive fresh rounds — the stop of the first
// driver must not wedge the fleet for later ones.
func TestStartAntiEntropyRestart(t *testing.T) {
	f := New(Config{})
	ms := []*mergeStage{newMergeStage(1, 99), newMergeStage(2, 99)}
	for i, m := range ms {
		if err := f.AddMember(fmt.Sprintf("m%d", i), m, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}
	waitRounds := func(min int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if ms[0].mergeCount() >= min && ms[1].mergeCount() >= min {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("rounds never reached %d: merges %d, %d", min, ms[0].mergeCount(), ms[1].mergeCount())
	}

	stop := f.StartAntiEntropy(time.Millisecond)
	waitRounds(1)
	stop()
	stop() // idempotent

	// No rounds may run after stop has returned.
	quiesced := ms[0].mergeCount()
	time.Sleep(10 * time.Millisecond)
	if got := ms[0].mergeCount(); got != quiesced {
		t.Fatalf("rounds kept running after stop: %d -> %d", quiesced, got)
	}

	// A fresh driver on the same fleet runs again.
	stop2 := f.StartAntiEntropy(time.Millisecond)
	defer stop2()
	waitRounds(quiesced + 1)
}

// TestStartAntiEntropyConcurrent: two drivers started concurrently on
// one fleet, each stopped twice from separate goroutines, must neither
// race nor deadlock (run under -race via the Makefile race target; the
// PR 8 sync.Once fix covered only a double-stop of a single driver).
func TestStartAntiEntropyConcurrent(t *testing.T) {
	f := New(Config{})
	ms := []*mergeStage{newMergeStage(1, 99), newMergeStage(2, 99)}
	for i, m := range ms {
		if err := f.AddMember(fmt.Sprintf("m%d", i), m, MemberConfig{Cohort: "fans"}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stops := make([]func(), 2)
	for i := range stops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stops[i] = f.StartAntiEntropy(time.Millisecond)
		}(i)
	}
	wg.Wait()

	// Let both drivers overlap on live rounds for a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ms[0].mergeCount() < 2 {
		time.Sleep(time.Millisecond)
	}
	if ms[0].mergeCount() < 2 {
		t.Fatalf("concurrent drivers ran no rounds: merges %d", ms[0].mergeCount())
	}

	// Double-stop each driver from two goroutines at once.
	for _, stop := range stops {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(stop func()) {
				defer wg.Done()
				stop()
			}(stop)
		}
	}
	wg.Wait()
}

// TestCohortMemoryCharged: MemoryBytes moves when a cohort name is
// attached, pinning the accounting next to the Sizeof-derived constant.
func TestCohortMemoryCharged(t *testing.T) {
	base := New(Config{})
	if err := base.Add("s", newMergeStage(1, 1)); err != nil {
		t.Fatal(err)
	}
	withCohort := New(Config{})
	if err := withCohort.AddMember("s", newMergeStage(1, 1), MemberConfig{Cohort: "fans"}); err != nil {
		t.Fatal(err)
	}
	diff := withCohort.MemoryBytes() - base.MemoryBytes()
	if diff != len("fans") {
		t.Fatalf("cohort memory delta = %d, want %d", diff, len("fans"))
	}
}
