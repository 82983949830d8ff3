package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/core"
	"edgedrift/internal/datasets/synth"
	"edgedrift/internal/rng"
	"edgedrift/internal/wire"
)

// testTemplate trains a small monitor on synthetic Gaussian data and
// returns its serialised artifact plus a drifted stream to replay.
func testTemplate(t testing.TB) (template []byte, stream [][]float64) {
	t.Helper()
	oldC := synth.NewGaussian([][]float64{{0, 0, 0}, {5, 5, 5}}, 0.3)
	newC := synth.ShiftedGaussian(oldC, 4)
	r := rng.New(7)
	trainX, trainY := synth.TrainingSet(oldC, 300, r)
	st, err := synth.Generate(oldC, newC, 3000, synth.Spec{Kind: synth.Sudden, Start: 1000}, r)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: 3, Hidden: 8, Window: 50, NRecon: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st.X
}

// startShard builds and serves a shard on an ephemeral port.
func startShard(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// referenceFleet replays the template locally — the ground truth every
// shard result must match bit-for-bit.
func referenceFleet(t *testing.T, template []byte, prec edgedrift.Precision, streams ...string) *edgedrift.Fleet {
	t.Helper()
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for _, id := range streams {
		mon, err := edgedrift.LoadMonitor(bytes.NewReader(template))
		if err != nil {
			t.Fatal(err)
		}
		var st edgedrift.Streaming = mon
		if prec == edgedrift.Fixed16 {
			if st, err = mon.QuantizeQ16(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.AddStage(id, st); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestShardBatchIngest drives two streams through a shard over TCP and
// asserts every result is bit-identical to a local fleet replay.
func TestShardBatchIngest(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr := startShard(t, Config{Template: template})
	ref := referenceFleet(t, template, edgedrift.Float64, "a", "b")

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const batchLen = 100
	for off := 0; off+batchLen <= 1000; off += batchLen {
		xs := stream[off : off+batchLen]
		for _, id := range []string{"a", "b"} {
			got, shed, err := cl.SendBatch(nil, id, xs)
			if err != nil {
				t.Fatal(err)
			}
			if shed != 0 {
				t.Fatalf("unexpected shed of %d samples with backpressure policy", shed)
			}
			want, err := ref.ProcessBatch(id, xs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shard results diverge from local replay at offset %d", id, off)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams != 2 || st.Samples != 2000 || st.ShedSamples != 0 {
		t.Fatalf("stats = %+v, want 2 streams / 2000 samples / 0 shed", st)
	}
}

// TestShardShedAccounting pins the shed policy's books: with an
// immediate-shed queue and the worker busy, pipelined batches are
// dropped at admission — and sent == processed + shed holds exactly.
func TestShardShedAccounting(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template, QueueDepth: 2, ShedAfter: -1})

	conn, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pipeline: blast batches without reading acks, then drain. The
	// worker can't keep up with a zero-latency sender, so the 2-deep
	// queue must overflow and shed.
	const nBatches, batchLen = 40, 64
	sent := 0
	var wg sync.WaitGroup
	wg.Add(1)
	acked, shedSamples := 0, 0
	go func() {
		defer wg.Done()
		for i := 0; i < nBatches; i++ {
			typ, p, err := conn.ReadFrame()
			if err != nil {
				t.Error(err)
				return
			}
			switch typ {
			case wire.TypeBatchAck:
				_, rs, err := wire.ParseResults(p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				acked += len(rs)
			case wire.TypeShed:
				_, n, err := wire.ParseShed(p)
				if err != nil {
					t.Error(err)
					return
				}
				shedSamples += n
			default:
				t.Errorf("unexpected frame %#x", typ)
				return
			}
		}
	}()
	var payload []byte
	for i := 0; i < nBatches; i++ {
		off := (i * batchLen) % (len(stream) - batchLen)
		payload, err = wire.AppendBatch(payload[:0], "s", stream[off:off+batchLen])
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
			t.Fatal(err)
		}
		sent += batchLen
	}
	wg.Wait()

	if acked+shedSamples != sent {
		t.Fatalf("accounting broken: acked %d + shed %d != sent %d", acked, shedSamples, sent)
	}
	st := s.Stats()
	if st.Samples != uint64(acked) {
		t.Fatalf("shard processed %d samples, acked %d — a shed batch was processed", st.Samples, acked)
	}
	if st.ShedSamples != uint64(shedSamples) {
		t.Fatalf("shard shed counter %d, client saw %d", st.ShedSamples, shedSamples)
	}
}

// TestShardMigration moves a live stream between two shards mid-stream
// and asserts bit-identical continuation and exact counter carry-over.
func TestShardMigration(t *testing.T) {
	template, stream := testTemplate(t)
	a, addrA := startShard(t, Config{Template: template})
	b, addrB := startShard(t, Config{Template: template})
	ref := referenceFleet(t, template, edgedrift.Float64, "mig")

	clA, err := wire.DialClient(addrA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := wire.DialClient(addrB, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	check := func(cl *wire.Client, xs [][]float64) {
		t.Helper()
		got, shed, err := cl.SendBatch(nil, "mig", xs)
		if err != nil || shed != 0 {
			t.Fatal(err, shed)
		}
		want, err := ref.ProcessBatch("mig", xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("results diverge from unmigrated reference")
		}
	}

	// First 1500 samples on shard A — through the drift at 1000 AND the
	// reconstruction that follows (checkpointing is refused
	// mid-reconstruction, so a migration point must sit past it).
	for off := 0; off < 1500; off += 100 {
		check(clA, stream[off:off+100])
	}
	// Live migration: export from A, import to B.
	st, err := clA.MigrateOut("mig")
	if err != nil {
		t.Fatal(err)
	}
	if err := clB.MigrateIn(st); err != nil {
		t.Fatal(err)
	}
	// A late batch at the old home must fail loudly, not respawn a
	// fresh member from the template.
	if _, _, err := clA.SendBatch(nil, "mig", stream[1500:1600]); err == nil {
		t.Fatal("tombstoned stream accepted a batch on the source shard")
	} else {
		var re *wire.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "migrated out") {
			t.Fatalf("tombstone error = %v", err)
		}
	}
	// Continuation on shard B stays bit-identical.
	for off := 1500; off < 3000; off += 100 {
		check(clB, stream[off:off+100])
	}

	// Accounting: zero lost, zero double-counted across the move. The
	// exported member leaves the source roll-up entirely (its lifetime
	// counters travel with it), so all 3000 samples live on B.
	sa, sb := a.Stats(), b.Stats()
	if sa.Samples != 0 || sa.Streams != 0 {
		t.Fatalf("source shard kept %d samples / %d streams after export", sa.Samples, sa.Streams)
	}
	if sb.Samples != 3000 {
		t.Fatalf("target shard samples = %d, want 3000 (carried counters + new batches)", sb.Samples)
	}
	if sa.MigratedOut != 1 || sb.MigratedIn != 1 {
		t.Fatalf("migration counters: out=%d in=%d", sa.MigratedOut, sb.MigratedIn)
	}
	refS, refD, err := ref.MemberStats("mig")
	if err != nil {
		t.Fatal(err)
	}
	bS, bD, err := b.Fleet().MemberStats("mig")
	if err != nil {
		t.Fatal(err)
	}
	if bS != refS || bD != refD {
		t.Fatalf("migrated counters %d/%d, reference %d/%d", bS, bD, refS, refD)
	}
}

// TestShardQ16Members runs a q16 shard end to end — template quantised
// at member creation, results bit-identical to a local q16 replay, and
// migration of the q16 member to a second shard.
func TestShardQ16Members(t *testing.T) {
	template, stream := testTemplate(t)
	cfg := Config{Template: template, Precision: edgedrift.Fixed16}
	_, addrA := startShard(t, cfg)
	_, addrB := startShard(t, cfg)
	ref := referenceFleet(t, template, edgedrift.Fixed16, "q")

	clA, err := wire.DialClient(addrA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	clB, err := wire.DialClient(addrB, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()

	run := func(cl *wire.Client, xs [][]float64) []core.Result {
		t.Helper()
		got, shed, err := cl.SendBatch(nil, "q", xs)
		if err != nil || shed != 0 {
			t.Fatal(err, shed)
		}
		return got
	}
	got := run(clA, stream[:800])
	want, err := ref.ProcessBatch("q", stream[:800])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("q16 shard results diverge from local q16 replay")
	}
	st, err := clA.MigrateOut("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != 1 {
		t.Fatalf("q16 member exported with kind %d, want 1", st.Kind)
	}
	if err := clB.MigrateIn(st); err != nil {
		t.Fatal(err)
	}
	got = run(clB, stream[800:2000])
	want, err = ref.ProcessBatch("q", stream[800:2000])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("migrated q16 member diverged from unmigrated replay")
	}
}

// TestShardMetricsExposition checks the shard families render alongside
// the fleet roll-up.
func TestShardMetricsExposition(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.SendBatch(nil, "s", stream[:100]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"edgedrift_samples_total 100",
		"edgedrift_shard_batches_total 1",
		"edgedrift_shard_shed_samples_total 0",
		"edgedrift_shard_queue_depth 0",
		"edgedrift_shard_migrations_out_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardTimingSplit scrapes the shard's per-stage histograms after
// one batch: queue wait and ack write sit next to the compute-only
// ingest latency, one observation each.
func TestShardTimingSplit(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.SendBatch(nil, "s", stream[:8]); err != nil {
		t.Fatal(err)
	}
	// The ack write is observed after the client could read the ack.
	waitFor(t, 2*time.Second, "ack write observed", func() bool { return s.ackWrite.Snapshot().Count == 1 })
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"edgedrift_shard_queue_wait_seconds",
		"edgedrift_shard_ingest_latency_seconds",
		"edgedrift_shard_ack_write_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+family+" histogram") || !strings.Contains(out, family+"_count 1\n") {
			t.Errorf("exposition lacks a one-batch %s histogram", family)
		}
	}
}

// TestShardWarmBatchAllocs pins the shard's per-batch allocations over
// TCP: once a connection is warm, a batch round trip allocates only the
// stream name ParseBatch returns. Decode reuses a recycled sample
// buffer, the fleet scores without allocating, and the frame headers
// and ack buffer live with the connection. The client side moves raw
// frames and allocates nothing.
func TestShardWarmBatchAllocs(t *testing.T) {
	template, stream := testTemplate(t)
	_, addr := startShard(t, Config{Template: template})
	c, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, err := wire.AppendBatch(nil, "warm-stream", stream[:8])
	if err != nil {
		t.Fatal(err)
	}
	var rerr error
	roundTrip := func() {
		if err := c.WriteFrame(wire.TypeBatch, payload); err != nil {
			rerr = err
			return
		}
		typ, _, err := c.ReadFrame()
		if err == nil && typ != wire.TypeBatchAck {
			err = errors.New("reply is not a batch ack")
		}
		if err != nil {
			rerr = err
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if allocs != 1 {
		t.Errorf("warm batch round trip: %v allocs, want 1 (the stream name)", allocs)
	}
}

// TestShardMergeProtocol drives the cooperative control frames over
// TCP: FetchState is non-destructive (the donor keeps serving, no
// tombstone), MergeSeed replaces the target's model and is fenced by
// the fingerprint check, and both counters reach the exposition.
func TestShardMergeProtocol(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template, Cohort: "fans"})

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Create two monitoring streams with pre-drift data.
	for _, id := range []string{"t", "p"} {
		if _, _, err := cl.SendBatch(nil, id, stream[:200]); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Fleet().Cohort("p"); got != "fans" {
		t.Fatalf("shard-created stream joined cohort %q, want fans", got)
	}

	ms, err := cl.FetchState("p")
	if err != nil {
		t.Fatal(err)
	}
	if ms.Stream != "p" || len(ms.States) != 1 || ms.Fingerprint == 0 {
		t.Fatalf("fetch reply: stream=%q states=%d fprint=%#x", ms.Stream, len(ms.States), ms.Fingerprint)
	}
	// Non-destructive: the donor still serves batches afterwards.
	if _, _, err := cl.SendBatch(nil, "p", stream[200:300]); err != nil {
		t.Fatalf("donor stopped serving after fetch: %v", err)
	}

	// A wrong fingerprint must be rejected before any state is touched.
	bad := ms
	bad.Stream = "t"
	bad.Fingerprint = ms.Fingerprint + 1
	var re *wire.RemoteError
	if err := cl.MergeSeed(bad); !errors.As(err, &re) {
		t.Fatalf("fingerprint mismatch: err = %v, want RemoteError", err)
	}

	seed := ms
	seed.Stream = "t"
	if err := cl.MergeSeed(seed); err != nil {
		t.Fatal(err)
	}
	// The seeded stream keeps serving.
	if _, _, err := cl.SendBatch(nil, "t", stream[200:300]); err != nil {
		t.Fatalf("target stopped serving after seed: %v", err)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"edgedrift_shard_merge_fetches_total 1",
		"edgedrift_shard_merge_seeds_total 1",
		"edgedrift_merges_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Fetching an unknown stream fails loudly, in protocol sync.
	if _, err := cl.FetchState("nosuch"); !errors.As(err, &re) {
		t.Fatalf("fetch of unknown stream: err = %v, want RemoteError", err)
	}
}

// TestShardCohortRejectsQ16 pins the loud incompatibility: a cohort
// needs mergeable members, so a Q16.16 shard with a cohort must refuse
// to start.
func TestShardCohortRejectsQ16(t *testing.T) {
	template, _ := testTemplate(t)
	_, err := New(Config{Template: template, Precision: edgedrift.Fixed16, Cohort: "fans"})
	if err == nil {
		t.Fatal("Q16.16 shard with a cohort started")
	}
}

// TestShardRejectsWrongWidthBatch pins the width check at ingest: a
// batch narrower or wider than the template is answered with an error
// frame — not a worker panic that kills the process (float members),
// nor an ack scored on stale features (Q16.16 members) — and the
// connection keeps serving correct batches, bit-identically to a local
// replay that never saw the bad ones.
func TestShardRejectsWrongWidthBatch(t *testing.T) {
	template, stream := testTemplate(t)
	for _, prec := range []edgedrift.Precision{edgedrift.Float64, edgedrift.Fixed16} {
		t.Run(prec.String(), func(t *testing.T) {
			_, addr := startShard(t, Config{Template: template, Precision: prec})
			ref := referenceFleet(t, template, prec, "w")
			cl, err := wire.DialClient(addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for off, width := range []int{2, 4} {
				bad := make([][]float64, 5)
				for i := range bad {
					bad[i] = make([]float64, width)
				}
				_, _, err := cl.SendBatch(nil, "w", bad)
				var re *wire.RemoteError
				if !errors.As(err, &re) {
					t.Fatalf("width %d batch: err = %v, want a RemoteError", width, err)
				}
				xs := stream[off*50 : (off+1)*50]
				got, shed, err := cl.SendBatch(nil, "w", xs)
				if err != nil || shed != 0 {
					t.Fatalf("correct batch after width %d: err %v, shed %d", width, err, shed)
				}
				want, err := ref.ProcessBatch("w", xs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("results after a rejected width-%d batch diverge from local replay", width)
				}
			}
		})
	}
}

// TestShardCreateRace: two connections send a new stream's first batch
// at once. The one that loses the create race finds the winner's member
// (edgedrift.ErrAlreadyRegistered) and processes its batch there: one
// member, every sample counted. The losing path is also taken
// deterministically, against a member that is already registered.
func TestShardCreateRace(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	for i := 0; i < 2; i++ {
		if err := s.ensureStream("taken"); err != nil {
			t.Fatalf("create %d of a registered stream: %v", i, err)
		}
	}
	cls := make([]*wire.Client, 2)
	for i := range cls {
		cl, err := wire.DialClient(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cls[i] = cl
	}
	const rounds, batch = 20, 10
	for r := 0; r < rounds; r++ {
		id := fmt.Sprintf("race-%d", r)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, cl := range cls {
			wg.Add(1)
			go func(cl *wire.Client) {
				defer wg.Done()
				<-start
				if _, shed, err := cl.SendBatch(nil, id, stream[:batch]); err != nil || shed != 0 {
					t.Errorf("%s: err %v, shed %d", id, err, shed)
				}
			}(cl)
		}
		close(start)
		wg.Wait()
		if samples, _, err := s.Fleet().MemberStats(id); err != nil || samples != 2*batch {
			t.Fatalf("%s: %d samples (err %v), want %d on one member", id, samples, err, 2*batch)
		}
	}
	if got := s.Fleet().Len(); got != rounds+1 {
		t.Fatalf("%d members, want %d", got, rounds+1)
	}
}

// TestShardConcurrentClonesDrift: two connections create and drive
// streams at once, half of which drift, so members take private copies
// of the template's learned state while siblings on the other
// connection still read the shared slabs (make race runs this under the
// race detector). Every result matches a local replay, the template is
// never written, and only the undrifted members still share.
func TestShardConcurrentClonesDrift(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{Template: template})
	conns := [][]string{{"c0-drift", "c0-calm", "c0-drift2"}, {"c1-calm", "c1-drift", "c1-calm2"}}
	var all []string
	for _, ids := range conns {
		all = append(all, ids...)
	}
	ref := referenceFleet(t, template, edgedrift.Float64, all...)
	// The drift sits at sample 1000: drifting streams run past it and
	// through their reconstruction, calm ones stop short of it.
	length := func(id string) int {
		if strings.Contains(id, "drift") {
			return 1500
		}
		return 900
	}
	var wg sync.WaitGroup
	for _, ids := range conns {
		cl, err := wire.DialClient(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(ids []string) {
			defer wg.Done()
			for off := 0; off < 1500; off += 50 {
				for _, id := range ids {
					if off >= length(id) {
						continue
					}
					xs := stream[off : off+50]
					got, _, err := cl.SendBatch(nil, id, xs)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := ref.ProcessBatch(id, xs)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: shard results diverge from local replay at offset %d", id, off)
						return
					}
				}
			}
		}(ids)
	}
	wg.Wait()
	for _, id := range all {
		_, drifts, err := s.Fleet().MemberStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if (drifts > 0) != strings.Contains(id, "drift") {
			t.Fatalf("%s: %d drifts", id, drifts)
		}
	}
	if got := s.Fleet().Metrics().SharedStreams; got != 3 {
		t.Fatalf("%d members still share the template's learned state, want the 3 calm ones", got)
	}
	var buf bytes.Buffer
	if err := s.tmpl.Save(&buf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), template) {
		t.Fatal("the shard's template changed")
	}
}
