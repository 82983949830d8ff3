package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/health"
)

// countStage is a deterministic, trivially serialisable Streaming stage:
// it echoes x[0] as the score and fires a drift every driftEvery-th
// sample. It stands in for a Monitor so the container and scheduling
// logic can be tested without training a model.
type countStage struct {
	samples    int
	driftEvery int
}

func (c *countStage) Process(x []float64) core.Result {
	c.samples++
	r := core.Result{Label: -1, Score: x[0], Phase: core.Monitoring}
	if c.driftEvery > 0 && c.samples%c.driftEvery == 0 {
		r.DriftDetected = true
	}
	return r
}

func (c *countStage) MemoryBytes() int { return 2 * 8 }

func (c *countStage) Health() health.Snapshot {
	return health.Snapshot{SamplesSeen: c.samples, PFinite: true, Phase: "monitoring"}
}

func encCount(id string, s core.Streaming, w io.Writer) (byte, error) {
	c := s.(*countStage)
	return 0, binary.Write(w, binary.LittleEndian, []uint32{uint32(c.samples), uint32(c.driftEvery)})
}

func decCount(id string, kind byte, r io.Reader) (core.Streaming, error) {
	if kind != 0 {
		return nil, fmt.Errorf("unexpected member kind %d", kind)
	}
	var u [2]uint32
	if err := binary.Read(r, binary.LittleEndian, u[:]); err != nil {
		return nil, err
	}
	return &countStage{samples: int(u[0]), driftEvery: int(u[1])}, nil
}

func samples(n int, base float64) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{base + float64(i)}
	}
	return xs
}

func TestRegistry(t *testing.T) {
	f := New(Config{Shards: 4})
	if err := f.Add("a", &countStage{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("a", &countStage{}); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if err := f.Add("", &countStage{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := f.Add("b", nil); err == nil {
		t.Fatal("nil stage accepted")
	}
	for _, id := range []string{"b", "c", "d"} {
		if err := f.Add(id, &countStage{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("IDs = %v", got)
	}
	if _, _, ok := f.Remove("c"); !ok {
		t.Fatal("Remove of a registered stream reported not found")
	}
	if _, _, ok := f.Remove("c"); ok {
		t.Fatal("second Remove of the same stream reported found")
	}
	if _, err := f.ProcessBatch("c", samples(1, 0)); err == nil {
		t.Fatal("ProcessBatch on removed stream succeeded")
	}
}

// TestProcessBatchMatchesDirect locks the scheduling guarantee: results
// through the fleet are identical to driving the stage directly.
func TestProcessBatchMatchesDirect(t *testing.T) {
	direct := &countStage{driftEvery: 7}
	xs := samples(50, 1)
	var want []core.Result
	for _, x := range xs {
		want = append(want, direct.Process(x))
	}

	f := New(Config{})
	if err := f.Add("s", &countStage{driftEvery: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := f.ProcessBatch("s", xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet results differ from direct stage results")
	}
}

// TestConcurrentHammer drives many goroutines across shards under the
// race detector and asserts per-stream determinism: every stream's
// lifetime counters equal the single-threaded reference no matter how
// batches interleave across streams.
func TestConcurrentHammer(t *testing.T) {
	const streams, goroutinesPer, batches, batchLen = 16, 4, 8, 25
	f := New(Config{Shards: 4})
	for i := 0; i < streams; i++ {
		if err := f.Add(fmt.Sprintf("s%02d", i), &countStage{driftEvery: 9}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, streams*goroutinesPer)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%02d", i)
		for g := 0; g < goroutinesPer; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]core.Result, 0, batchLen)
				for b := 0; b < batches; b++ {
					var err error
					dst, err = f.ProcessBatchInto(dst[:0], id, samples(batchLen, 0))
					if err != nil {
						errc <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	wantSamples := uint64(goroutinesPer * batches * batchLen)
	wantDrifts := wantSamples / 9
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%02d", i)
		s, d, err := f.MemberStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if s != wantSamples || d != wantDrifts {
			t.Fatalf("%s: samples=%d drifts=%d, want %d/%d", id, s, d, wantSamples, wantDrifts)
		}
	}
	agg := f.Health()
	if agg.SamplesSeen != int(wantSamples)*streams || !agg.Healthy() {
		t.Fatalf("aggregate health: %+v", agg)
	}
}

func TestEvents(t *testing.T) {
	f := New(Config{EventBuffer: 4})
	if err := f.Add("s", &countStage{driftEvery: 3}); err != nil {
		t.Fatal(err)
	}
	// Before Subscribe nothing is buffered or counted as dropped.
	if _, err := f.ProcessBatch("s", samples(6, 0)); err != nil {
		t.Fatal(err)
	}
	if f.EventsDropped() != 0 {
		t.Fatal("events dropped before any subscriber")
	}
	ch := f.Subscribe()
	if len(ch) != 0 {
		t.Fatal("events buffered before Subscribe")
	}
	if _, err := f.ProcessBatch("s", samples(6, 0)); err != nil {
		t.Fatal(err)
	}
	// Samples 7..12 of the stream: drifts at 1-based 9 and 12, i.e.
	// 0-based per-stream indices 8 and 11.
	ev := <-ch
	if ev.StreamID != "s" || ev.Index != 8 || !ev.Result.DriftDetected {
		t.Fatalf("first event = %+v", ev)
	}
	ev = <-ch
	if ev.Index != 11 {
		t.Fatalf("second event index = %d, want 11", ev.Index)
	}
	// Overflow the small buffer with an undrained subscriber.
	if _, err := f.ProcessBatch("s", samples(60, 0)); err != nil {
		t.Fatal(err)
	}
	if f.EventsDropped() == 0 {
		t.Fatal("no drops recorded after overflowing the event buffer")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := New(Config{})
	for i := 0; i < 5; i++ {
		st := &countStage{driftEvery: 4}
		for j := 0; j <= i; j++ {
			st.Process([]float64{0})
		}
		if err := f.Add(fmt.Sprintf("m%d", i), st); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, encCount); err != nil {
		t.Fatal(err)
	}

	g := New(Config{})
	if err := g.Load(bytes.NewReader(buf.Bytes()), decCount); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.IDs(), f.IDs()) {
		t.Fatalf("IDs after load: %v", g.IDs())
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("m%d", i)
		var got int
		if err := g.Do(id, func(s core.Streaming) error {
			got = s.(*countStage).samples
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != i+1 {
			t.Fatalf("%s: samples=%d, want %d", id, got, i+1)
		}
	}

	// Determinism: saving the loaded fleet reproduces the bytes.
	var buf2 bytes.Buffer
	if err := g.Save(&buf2, encCount); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

// TestLoadCorruption flips every byte of the artifact in turn; every
// single flip must be caught by a member or container checksum.
func TestLoadCorruption(t *testing.T) {
	f := New(Config{})
	for i := 0; i < 3; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), &countStage{driftEvery: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, encCount); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()
	for pos := 0; pos < len(art); pos++ {
		bad := append([]byte(nil), art...)
		bad[pos] ^= 0x40
		g := New(Config{})
		if err := g.Load(bytes.NewReader(bad), decCount); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadFormat", pos, err)
		}
	}
	// Truncation at any length must also fail.
	for _, n := range []int{0, 3, 6, 10, len(art) / 2, len(art) - 1} {
		g := New(Config{})
		if err := g.Load(bytes.NewReader(art[:n]), decCount); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadFormat", n, err)
		}
	}
}

// TestMemberKindRoundTrip pins the FLEET2 member-kind byte: each
// member's kind survives save/load independently, and the decoder is
// handed exactly the kind its encoder recorded.
func TestMemberKindRoundTrip(t *testing.T) {
	f := New(Config{})
	if err := f.Add("a", &countStage{driftEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	// Smuggle driftEvery through the kind byte: only the sample count is
	// in the payload, so a dropped or reordered kind cannot go unnoticed.
	enc := func(id string, s core.Streaming, w io.Writer) (byte, error) {
		c := s.(*countStage)
		if err := ckpt.PutU32(w, uint32(c.samples)); err != nil {
			return 0, err
		}
		return byte(c.driftEvery), nil
	}
	dec := func(id string, kind byte, r io.Reader) (core.Streaming, error) {
		n, err := ckpt.GetU32(r)
		if err != nil {
			return nil, err
		}
		return &countStage{samples: int(n), driftEvery: int(kind)}, nil
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, enc); err != nil {
		t.Fatal(err)
	}
	g := New(Config{})
	if err := g.Load(bytes.NewReader(buf.Bytes()), dec); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{"a": 1, "b": 2} {
		if err := g.Do(id, func(s core.Streaming) error {
			if got := s.(*countStage).driftEvery; got != want {
				t.Errorf("%s: kind round-tripped to %d, want %d", id, got, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportImportMember locks the migration handoff: export removes
// the member atomically with a sample-boundary snapshot, import resumes
// it elsewhere with bit-identical continuation and carried-over
// lifetime counters — zero lost, zero double-counted.
func TestExportImportMember(t *testing.T) {
	f := New(Config{})
	if err := f.Add("s", &countStage{driftEvery: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", samples(7, 0)); err != nil {
		t.Fatal(err)
	}

	st, err := f.ExportMember("s", encCount)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != 0 || st.Samples != 7 || st.Drifts != 2 {
		t.Fatalf("export kind=%d samples=%d drifts=%d, want 0/7/2", st.Kind, st.Samples, st.Drifts)
	}
	if _, err := f.ProcessBatch("s", samples(1, 0)); err == nil {
		t.Fatal("exported stream still accepts samples on the source")
	}
	if f.Len() != 0 {
		t.Fatalf("source Len = %d after export, want 0", f.Len())
	}

	g := New(Config{})
	if err := g.ImportMember(st, decCount); err != nil {
		t.Fatal(err)
	}
	got, err := g.ProcessBatch("s", samples(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical continuation: an unmigrated reference stage fed the
	// same 12 samples must agree on the last 5 results.
	ref := &countStage{driftEvery: 3}
	var want []core.Result
	for _, x := range samples(7, 0) {
		ref.Process(x)
	}
	for _, x := range samples(5, 0) {
		want = append(want, ref.Process(x))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-import results differ from the unmigrated reference")
	}
	// Counter carry-over: lifetime counts continue across the move.
	s2, d2, err := g.MemberStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 12 || d2 != 4 {
		t.Fatalf("post-import stats = %d/%d, want 12/4", s2, d2)
	}
	if m := g.Metrics(); m.Samples != 12 || m.Drifts != 4 {
		t.Fatalf("roll-up after import = %d/%d, want 12/4", m.Samples, m.Drifts)
	}
}

// TestExportMemberFailureRollsBack: a failed encode must leave the
// fleet exactly as it was — the member re-registered and processable.
func TestExportMemberFailureRollsBack(t *testing.T) {
	f := New(Config{})
	if err := f.Add("s", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encode failed")
	encFail := func(id string, s core.Streaming, w io.Writer) (byte, error) { return 0, boom }
	if _, err := f.ExportMember("s", encFail); !errors.Is(err, boom) {
		t.Fatalf("export err = %v, want the encoder's error", err)
	}
	if _, err := f.ProcessBatch("s", samples(3, 0)); err != nil {
		t.Fatalf("member unusable after failed export: %v", err)
	}
	if s, _, err := f.MemberStats("s"); err != nil || s != 3 {
		t.Fatalf("stats after rollback = %d, %v", s, err)
	}
}

// TestExportMemberCollision: if Add re-created the id during a failed
// export, the rollback must not silently discard either member — the
// new registration keeps the slot and the export reports the collision
// as a typed error. (The old rollback's bare `if !exists` branch
// dropped the original member and its lifetime counters without a
// trace.)
func TestExportMemberCollision(t *testing.T) {
	f := New(Config{})
	if err := f.Add("s", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", samples(6, 0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encode failed")
	usurper := &countStage{driftEvery: 100}
	encCollide := func(id string, s core.Streaming, w io.Writer) (byte, error) {
		// The id is out of the registry while the encoder runs, so a
		// concurrent Add succeeds — simulate it inline.
		if err := f.Add(id, usurper); err != nil {
			t.Errorf("re-Add during export: %v", err)
		}
		return 0, boom
	}
	_, err := f.ExportMember("s", encCollide)
	if !errors.Is(err, ErrExportCollision) {
		t.Fatalf("export err = %v, want ErrExportCollision", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("export err = %v, should also wrap the encode error", err)
	}
	// The new registration survives and is the one processing samples.
	if f.Len() != 1 {
		t.Fatalf("Len = %d after collision, want 1", f.Len())
	}
	if _, err := f.ProcessBatch("s", samples(2, 0)); err != nil {
		t.Fatalf("new member unusable after collision: %v", err)
	}
	if usurper.samples != 2 {
		t.Fatalf("usurper samples = %d, want 2 (original member resurrected?)", usurper.samples)
	}
	// The original's lifetime counters are gone — fresh member stats.
	if s, _, err := f.MemberStats("s"); err != nil || s != 2 {
		t.Fatalf("stats after collision = %d, %v; want 2 (new member's own)", s, err)
	}
}

// TestImportMemberCorruption: a corrupt payload must fail with
// ErrBadFormat and register nothing.
func TestImportMemberCorruption(t *testing.T) {
	f := New(Config{})
	if err := f.Add("s", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := f.ExportMember("s", encCount)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(st.Payload); pos++ {
		bad := *st
		bad.Payload = append([]byte(nil), st.Payload...)
		bad.Payload[pos] ^= 0x40
		g := New(Config{})
		if err := g.ImportMember(&bad, decCount); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadFormat", pos, err)
		}
		if g.Len() != 0 {
			t.Fatalf("flip at byte %d: corrupt import registered a member", pos)
		}
	}
	// Trailing garbage after the footer must also fail.
	g := New(Config{})
	trailing := *st
	trailing.Payload = append(st.Payload, 0)
	if err := g.ImportMember(&trailing, decCount); !errors.Is(err, ckpt.ErrBadFormat) {
		t.Fatalf("trailing byte: err = %v, want ErrBadFormat", err)
	}
}

// blockingStage parks every Process call on a gate so tests can hold a
// batch mid-flight deterministically.
type blockingStage struct {
	gate    chan struct{} // each Process call consumes one token
	entered chan struct{} // signalled on Process entry
	n       int
}

func (b *blockingStage) Process(x []float64) core.Result {
	b.entered <- struct{}{}
	<-b.gate
	b.n++
	return core.Result{DriftDetected: true, Phase: core.Monitoring}
}

func (b *blockingStage) MemoryBytes() int { return 8 }

func (b *blockingStage) Health() health.Snapshot {
	return health.Snapshot{SamplesSeen: b.n, PFinite: true, Phase: "monitoring"}
}

// TestScrapeDoesNotBlockRegistry is the regression test for the
// eachMember lock-holding bug: a Health (or /metrics) scrape parked on
// one member's lock behind a long batch used to hold the shard read
// lock the whole time, so Add/Remove on that shard stalled with it. The
// fix snapshots the member set and releases the shard lock before
// visiting, so registry mutation proceeds while the scrape waits.
func TestScrapeDoesNotBlockRegistry(t *testing.T) {
	f := New(Config{Shards: 1}) // one shard: every stream contends on the same registry lock
	st := &blockingStage{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	if err := f.Add("busy", st); err != nil {
		t.Fatal(err)
	}

	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		if _, err := f.ProcessBatch("busy", samples(1, 0)); err != nil {
			t.Error(err)
		}
	}()
	<-st.entered // the batch holds the member lock, parked in Process

	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		f.Health()
	}()
	// Let the scrape reach the busy member and park on its lock.
	time.Sleep(20 * time.Millisecond)

	addDone := make(chan error, 1)
	go func() { addDone <- f.Add("other", &countStage{}) }()
	select {
	case err := <-addDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Add blocked behind a Health scrape stalled on a busy member of the same shard")
	}

	close(st.gate)
	<-batchDone
	<-healthDone
}

// TestRemoveWaitsForInFlightBatch locks the removal contract: Remove
// must not return while a batch is still mid-flight on the removed
// member, and the final counts it reports must include that batch. The
// pre-fix Remove took only the shard lock, so a "removed" stream could
// keep emitting drift events after Remove returned.
func TestRemoveWaitsForInFlightBatch(t *testing.T) {
	f := New(Config{})
	st := &blockingStage{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	if err := f.Add("s", st); err != nil {
		t.Fatal(err)
	}
	ch := f.Subscribe()

	batchDone := make(chan error, 1)
	go func() {
		_, err := f.ProcessBatch("s", samples(1, 0))
		batchDone <- err
	}()
	<-st.entered // the batch now holds the member lock, parked in Process

	type rm struct {
		samples, drifts uint64
		ok              bool
	}
	removed := make(chan rm, 1)
	go func() {
		s, d, ok := f.Remove("s")
		removed <- rm{s, d, ok}
	}()

	select {
	case <-removed:
		t.Fatal("Remove returned while a batch was still mid-flight on the removed member")
	case <-time.After(50 * time.Millisecond):
		// Remove is (correctly) blocked on the member lock.
	}

	close(st.gate) // release the in-flight Process call
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	r := <-removed
	if !r.ok || r.samples != 1 || r.drifts != 1 {
		t.Fatalf("Remove final counts = %+v, want samples=1 drifts=1 ok=true", r)
	}
	// The in-flight batch's drift event was emitted before Remove
	// returned — nothing can arrive afterwards.
	select {
	case <-ch:
	default:
		t.Fatal("drift event from the in-flight batch missing at Remove return")
	}
}

// TestRemoveProcessBatchRace hammers Remove against concurrent
// ProcessBatch calls under the race detector and checks the accounting
// invariant: the final counts Remove reports equal exactly the samples
// the racing producers successfully processed — no batch slips through
// after removal.
func TestRemoveProcessBatchRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		f := New(Config{Shards: 2})
		if err := f.Add("s", &countStage{driftEvery: 3}); err != nil {
			t.Fatal(err)
		}
		var processed atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					rs, err := f.ProcessBatch("s", samples(5, 0))
					if err != nil {
						return // stream removed
					}
					processed.Add(uint64(len(rs)))
				}
			}()
		}
		removed := make(chan uint64, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, _, ok := f.Remove("s")
			if !ok {
				t.Error("Remove lost the race it cannot lose")
			}
			removed <- s
		}()
		close(start)
		wg.Wait()
		if got, want := <-removed, processed.Load(); got != want {
			t.Fatalf("iter %d: Remove reported %d samples, producers processed %d", iter, got, want)
		}
	}
}

// TestMemberOverheadDerivedFromSizeof pins the registry's per-member
// accounting to the real struct layout so the constant cannot rot: the
// member struct itself, the map value pointer, and the string-header
// part of the map key (the key's bytes are charged per member as
// len(id)).
func TestMemberOverheadDerivedFromSizeof(t *testing.T) {
	want := int(unsafe.Sizeof(member{})) +
		int(unsafe.Sizeof((*member)(nil))) +
		int(unsafe.Sizeof(""))
	if memberOverheadBytes != want {
		t.Fatalf("memberOverheadBytes = %d, want %d (member struct %d + map value pointer %d + string header %d)",
			memberOverheadBytes, want,
			unsafe.Sizeof(member{}), unsafe.Sizeof((*member)(nil)), unsafe.Sizeof(""))
	}
	f := New(Config{})
	st := &countStage{}
	if err := f.Add("stream-00", st); err != nil {
		t.Fatal(err)
	}
	if got, want := f.MemoryBytes(), st.MemoryBytes()+memberOverheadBytes+len("stream-00"); got != want {
		t.Fatalf("fleet MemoryBytes = %d, want %d", got, want)
	}
}

func TestMetricsRollup(t *testing.T) {
	f := New(Config{})
	for i, n := range []int{10, 20, 30} {
		id := fmt.Sprintf("m%d", i)
		if err := f.Add(id, &countStage{driftEvery: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ProcessBatch(id, samples(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	m := f.Metrics()
	if m.Streams != 3 || m.Samples != 60 || m.Drifts != 6 {
		t.Fatalf("roll-up = %+v, want 3 streams, 60 samples, 6 drifts", m)
	}
	if got := m.PerStream["m2"]; got.Samples != 30 || got.Drifts != 3 || got.Stage != nil {
		t.Fatalf("m2 = %+v, want 30/3 with no stage instrumentation", got)
	}
	if m.MemoryBytes != f.MemoryBytes() {
		t.Fatalf("metrics memory %d != audit %d", m.MemoryBytes, f.MemoryBytes())
	}
	if len(f.Traces()) != 0 {
		t.Fatal("uninstrumented fleet must have no traces")
	}
}

// TestInstrumentedFleet locks the opt-in instrumentation path: members
// wrapped at Add, per-stream stage metrics in the roll-up, and drift
// traces capped at TraceDepth.
func TestInstrumentedFleet(t *testing.T) {
	f := New(Config{Instrument: true, SampleEvery: 4, TraceDepth: 3})
	if err := f.Add("s", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProcessBatch("s", samples(20, 0)); err != nil {
		t.Fatal(err)
	}
	m := f.Metrics()
	sm := m.PerStream["s"]
	if sm.Stage == nil {
		t.Fatal("instrumented fleet must expose stage metrics")
	}
	if sm.Stage.Samples != 20 || sm.Stage.Drifts != 10 {
		t.Fatalf("stage metrics = %+v", sm.Stage)
	}
	if sm.Stage.Latency.Count != 5 {
		t.Fatalf("latency sampled %d times, want 5 (every 4th of 20)", sm.Stage.Latency.Count)
	}
	tr := f.Traces()["s"]
	if len(tr) != 3 {
		t.Fatalf("trace length = %d, want cap 3", len(tr))
	}
	if tr[2].Index != 19 || tr[2].StreamID != "s" {
		t.Fatalf("newest trace entry = %+v", tr[2])
	}
	// Scheduling results are identical to an uninstrumented stage.
	ref := &countStage{driftEvery: 2}
	var want []core.Result
	for _, x := range samples(20, 0) {
		want = append(want, ref.Process(x))
	}
	g := New(Config{Instrument: true})
	if err := g.Add("s", &countStage{driftEvery: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := g.ProcessBatch("s", samples(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("instrumented fleet results differ from direct stage results")
	}
}

// TestFleetMetricsConcurrentScrape drives an instrumented member while
// another goroutine scrapes Metrics and Traces — the supported
// concurrent-read path, serialised by the member lock (the stage's own
// counters are plain single-writer fields). Run under -race.
func TestFleetMetricsConcurrentScrape(t *testing.T) {
	f := New(Config{Instrument: true, SampleEvery: 2, TraceDepth: 8})
	if err := f.Add("s", &countStage{driftEvery: 7}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, err := f.ProcessBatch("s", samples(10, 0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		m := f.Metrics()
		sm := m.PerStream["s"]
		if sm.Drifts > sm.Samples || (sm.Stage != nil && sm.Stage.Samples != sm.Samples) {
			t.Errorf("scrape inconsistent: %+v / %+v", sm, sm.Stage)
			break
		}
		f.Traces()
	}
	<-done
	m := f.Metrics()
	if sm := m.PerStream["s"]; sm.Samples != 5000 || sm.Stage.Drifts != 5000/7 {
		t.Fatalf("final metrics = %+v / %+v", sm, sm.Stage)
	}
}

func TestHealthAggregate(t *testing.T) {
	a := health.Snapshot{SamplesSeen: 10, Rejected: 1, PTraceMax: 2, PFinite: true,
		ScoreSamples: 10, ScoreMean: 1, ScoreStd: 0, Phase: "monitoring"}
	b := health.Snapshot{SamplesSeen: 30, Clamped: 2, PTraceMax: 5, PFinite: true,
		ScoreSamples: 30, ScoreMean: 3, ScoreStd: 0, Phase: "reconstructing"}
	agg := health.Aggregate([]health.Snapshot{a, b})
	if agg.SamplesSeen != 40 || agg.Rejected != 1 || agg.Clamped != 2 {
		t.Fatalf("counter sums: %+v", agg)
	}
	if agg.PTraceMax != 5 || !agg.PFinite || agg.Phase != "reconstructing" {
		t.Fatalf("max/and/phase roll-up: %+v", agg)
	}
	// Pooled mean of (10×1, 30×3) is 2.5; pooled variance of two point
	// masses at 1 and 3 with those weights is 0.75.
	if agg.ScoreMean != 2.5 {
		t.Fatalf("pooled mean = %v", agg.ScoreMean)
	}
	if d := agg.ScoreStd*agg.ScoreStd - 0.75; d > 1e-12 || d < -1e-12 {
		t.Fatalf("pooled variance = %v, want 0.75", agg.ScoreStd*agg.ScoreStd)
	}
	unhealthy := health.Aggregate([]health.Snapshot{a, {PFinite: false}})
	if unhealthy.Healthy() {
		t.Fatal("one non-finite member must make the aggregate unhealthy")
	}
	idle := health.Aggregate(nil)
	if !idle.Healthy() || idle.Phase != "monitoring" {
		t.Fatalf("empty aggregate: %+v", idle)
	}
}
