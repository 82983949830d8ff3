package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"edgedrift"
	"edgedrift/internal/shard"
	"edgedrift/internal/wire"
)

// tierTree is the tier request path: the client encodes a batch and
// sends it to the router, which relays it to the shard; the shard
// decodes it, runs it through Fleet.ProcessBatchInto, encodes the ack,
// and the client parses the ack. The fleet calls the member's
// Monitor.ProcessBatch, which calls Detector.ProcessBatch, which calls
// Multi.PredictBatch, which calls each instance's ScoreBatch, which
// issues the batched mat kernels.
var tierTree = map[string]string{
	"request":         "",
	"wire.encode":     "request",
	"router":          "request",
	"shard":           "router",
	"wire.decode":     "shard",
	"fleet":           "shard",
	"wire.ack_encode": "shard",
	"wire.ack_parse":  "shard",
	"edgedrift":       "fleet",
	"core":            "edgedrift",
	"model":           "core",
	"oselm":           "model",
	"mat":             "oselm",
}

// decodeSink keeps decoded batches alive so the allocation count of
// Decode cannot be optimised away.
var decodeSink [][]float64

// exchange sends one batch payload and parses its ack into rs.
func exchange(conn *wire.Conn, payload []byte, rs []edgedrift.Result) ([]edgedrift.Result, error) {
	if err := conn.WriteFrame(wire.TypeBatch, payload); err != nil {
		return rs, err
	}
	typ, p, err := conn.ReadFrame()
	if err != nil {
		return rs, err
	}
	if typ != wire.TypeBatchAck {
		return rs, fmt.Errorf("reply type %#x to a batch", typ)
	}
	_, rs, err = wire.ParseResults(p, rs[:0])
	return rs, err
}

// digestsMatch reports whether rs are bit-identical to the results the
// load connection received for batch b.
func (lc *loadConn) digestsMatch(b int, rs []edgedrift.Result) bool {
	if len(rs) != tierBatch {
		return false
	}
	for j, r := range rs {
		if resultDigest(r) != lc.digests.at(b*tierBatch+j) {
			return false
		}
	}
	return true
}

// twinShard is a second shard that receives the traced batches
// straight from the load, bypassing the router.
type twinShard struct {
	srv     *shard.Server
	serving sync.WaitGroup
	conns   []*wire.Conn
}

// newTwinShard starts a shard from the same template and replays every
// batch the load has sent so far, so its members match the tier's.
func newTwinShard(st *tierState) (*twinShard, error) {
	ts := &twinShard{}
	var err error
	if ts.srv, err = shard.New(shard.Config{Template: st.artifact}); err != nil {
		return nil, err
	}
	addr, err := serveOn(&ts.serving, ts.srv.Serve)
	if err != nil {
		ts.close()
		return nil, err
	}
	for range st.conns {
		conn, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			ts.close()
			return nil, err
		}
		ts.conns = append(ts.conns, conn)
	}
	err = eachConn(st.conns, func(c int, lc *loadConn) error {
		var xs [][]float64
		var payload []byte
		var rs []edgedrift.Result
		for b := 0; b < lc.batches; b++ {
			s, k := lc.stream(b)
			xs = st.in.batch(xs, s, k)
			var err error
			if payload, err = wire.AppendBatch(payload[:0], st.in.names[s], xs); err != nil {
				return err
			}
			if rs, err = exchange(ts.conns[c], payload, rs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		ts.close()
		return nil, err
	}
	return ts, nil
}

func (ts *twinShard) close() {
	for _, c := range ts.conns {
		c.Close()
	}
	ts.srv.Close()
	ts.serving.Wait()
}

// traceTier is the traced run of tier-fanin, in two passes over the
// same batches so that at most three member sets are alive at once.
//
// The network pass drives the load through the router, traced, for
// half the run length; right after each reply the same payload goes
// straight to a twin shard, which times the shard without the router.
// A quarter of the run length then runs untraced, the tracing
// overhead's baseline.
//
// The in-process pass replays every traced batch, in the same order,
// through the shard's own steps on twins brought to the traced region's
// start: ParseBatch+Decode, Fleet.ProcessBatchInto on a fleet of
// template clones, AppendResults, then Monitor.ProcessBatch,
// Detector.ProcessBatch, Multi.PredictBatch, the instances' ScoreBatch
// and the mat kernels, each on its own member set (see
// replayInProcess).
func traceTier(cfg config, st *tierState) (*outcome, error) {
	out := newOutcome(tierParams(st))
	ts, err := newTwinShard(st)
	if err != nil {
		return nil, err
	}
	before := st.books()
	epoch := time.Now()
	n := len(st.conns)
	trs := make([]*tracer, n)
	b0 := make([]int, n)
	window := make([]int, n)
	recon := make([]int, n)
	twinBad := make([]int, n)
	for c, lc := range st.conns {
		trs[c] = newTracer(tierTree, epoch)
		b0[c] = lc.batches
	}
	deadline := time.Now().Add(cfg.dur / 2)
	var ackBytes int
	err = eachConn(st.conns, func(c int, lc *loadConn) error {
		tr := trs[c]
		var rs []edgedrift.Result
		for {
			b := lc.batches
			t0 := time.Now()
			if _, err := lc.step(st.in, tr); err != nil {
				return err
			}
			t1 := time.Now()
			tr.record("request", b, t0, t1)

			a := time.Now()
			if err := ts.conns[c].WriteFrame(wire.TypeBatch, lc.payload); err != nil {
				return err
			}
			typ, p, err := ts.conns[c].ReadFrame()
			if err != nil {
				return err
			}
			if typ != wire.TypeBatchAck {
				return fmt.Errorf("twin shard replied %#x to a batch", typ)
			}
			p0 := time.Now()
			if _, rs, err = wire.ParseResults(p, rs[:0]); err != nil {
				return err
			}
			z := time.Now()
			tr.record("wire.ack_parse", b, p0, z)
			tr.record("shard", b, a, z)
			if c == 0 {
				ackBytes = len(p)
			}
			if !lc.digestsMatch(b, rs) {
				twinBad[c]++
			}
			for _, r := range lc.rs {
				if r.Dist != 0 {
					window[c]++
				}
				if r.Phase == edgedrift.Reconstructing {
					recon[c]++
				}
			}
			if !t1.Before(deadline) {
				return nil
			}
		}
	})
	ts.close()
	if err != nil {
		return nil, err
	}
	b1 := make([]int, n)
	for c, lc := range st.conns {
		b1[c] = lc.batches
	}
	payloadBytes := len(st.conns[0].payload)
	acked, wall, err := st.closedLoop(cfg.dur / 4)
	if err != nil {
		return nil, err
	}
	untracedRate := float64(acked) / wall.Seconds()
	stats, err := st.checkConservation(out)
	if err != nil {
		return nil, err
	}
	st.close()
	st.srv, st.rt = nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	if err := replayInProcess(st, trs, b0, b1, twinBad); err != nil {
		return nil, err
	}
	allocs, err := decodeAllocs(st.conns[0].payload)
	if err != nil {
		return nil, err
	}
	mismatches, err := st.referenceMismatches()
	if err != nil {
		return nil, err
	}
	bad := 0
	for _, v := range twinBad {
		bad += v
	}
	if mismatches > 0 || bad > 0 {
		out.fail("%d results differ from the per-sample reference replay; %d batches differ on a twin", mismatches, bad)
	}

	tr := trs[0]
	for _, o := range trs[1:] {
		tr.merge(o)
	}
	out.spans = tr.kept
	nb := 0
	for c := range st.conns {
		nb += b1[c] - b0[c]
	}
	sum := func(xs []int) (t int) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	after := st.books()
	out.attempted, out.failed = after.sent-before.sent, after.lost()-before.lost()
	per := func(layer string) float64 { return float64(tr.total[layer]) / float64(nb) }
	self := func(layer string) float64 { return float64(tr.self(layer)) / float64(nb) }
	tracedRate := float64(nb*tierBatch) / (tr.total["request"].Seconds() / float64(n))
	out.set("trace.requests", float64(nb))
	out.set("trace.total_us_per_batch", per("request")/1e3)
	out.set("trace.overhead_pct", 100*(1-tracedRate/untracedRate))
	out.set("unattributed_us_per_batch", self("request")/1e3)
	out.set("wire.encode_ns_per_batch", per("wire.encode"))
	out.set("router.self_us_per_batch", self("router")/1e3)
	out.set("shard.self_us_per_batch", self("shard")/1e3)
	out.set("wire.decode_ns_per_batch", per("wire.decode"))
	out.set("wire.ack_encode_ns_per_batch", per("wire.ack_encode"))
	out.set("wire.ack_parse_ns_per_batch", per("wire.ack_parse"))
	out.set("wire.decode_allocs_per_batch", allocs)
	out.set("wire.bytes_per_sample", float64(5+payloadBytes+5+ackBytes)/tierBatch)
	out.set("fleet.self_ns_per_batch", self("fleet"))
	out.set("edgedrift.batch_self_ns_per_batch", self("edgedrift"))
	out.set("core.batch_self_ns_per_batch", self("core"))
	out.set("core.window_samples", float64(sum(window)))
	out.set("core.recon_samples", float64(sum(recon)))
	out.set("model.batch_self_ns_per_batch", self("model"))
	out.set("oselm.scorebatch_ns_per_batch", per("oselm"))
	out.set("oselm.scorebatch_self_ns_per_batch", self("oselm"))
	out.set("mat.batch_ns_per_sample", per("mat")/tierBatch)
	out.set("shard.compute_p99_ns", float64(stats.IngestP99Ns))
	out.set("shard.batches", float64(stats.Batches))
	out.set("shard.shed_samples", float64(stats.ShedSamples))
	out.set("shard.queue_depth", float64(stats.QueueDepth))
	return out, nil
}

// replayInProcess is the in-process pass of the traced tier run: every
// batch in [b0[c], b1[c]) of every load connection, replayed in order.
// Each replayed layer runs on its own member set, which the pass visits
// once per round of 1024 batches, so every call finds its member's
// state as cold as the real path does. Two sub-passes keep at most
// three sets alive. Twin results that differ from what the tier
// returned are counted in twinBad per connection.
func replayInProcess(st *tierState, trs []*tracer, b0, b1, twinBad []int) error {
	if err := replayShardSteps(st, trs, b0, b1, twinBad); err != nil {
		return err
	}
	runtime.GC()
	return replayModelLayers(st, trs, b0, b1)
}

// loadTwins loads sets×tierStreams monitors from the template.
func loadTwins(st *tierState, sets int) ([][]*edgedrift.Monitor, error) {
	twins := make([][]*edgedrift.Monitor, sets)
	for i := range twins {
		twins[i] = make([]*edgedrift.Monitor, tierStreams)
		for s := range twins[i] {
			m, err := edgedrift.LoadMonitor(bytes.NewReader(st.artifact))
			if err != nil {
				return nil, err
			}
			twins[i][s] = m
		}
	}
	return twins, nil
}

// decodeBatch encodes stream s's k-th batch as the load does and
// decodes it as the shard does, timing the decode when tr is non-nil.
func decodeBatch(st *tierState, tr *tracer, b, s, k int, xs [][]float64, payload []byte) ([][]float64, []byte, error) {
	xs = st.in.batch(xs, s, k)
	var err error
	if payload, err = wire.AppendBatch(payload[:0], st.in.names[s], xs); err != nil {
		return nil, payload, err
	}
	a := time.Now()
	pb, err := wire.ParseBatch(payload)
	if err != nil {
		return nil, payload, err
	}
	dec := pb.Decode(nil)
	if tr != nil {
		tr.record("wire.decode", b, a, time.Now())
	}
	return dec, payload, nil
}

// replayShardSteps times the shard's steps and the two layers with
// per-stream state: decode, Fleet.ProcessBatchInto on a fleet of
// template clones, AppendResults, Monitor.ProcessBatch and
// Detector.ProcessBatch, on twins first fed every earlier batch.
func replayShardSteps(st *tierState, trs []*tracer, b0, b1, twinBad []int) error {
	twins, err := loadTwins(st, 3)
	if err != nil {
		return err
	}
	fleet := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for s, m := range twins[0] {
		if err := fleet.Add(st.in.names[s], m); err != nil {
			return err
		}
	}
	return eachConn(st.conns, func(c int, lc *loadConn) error {
		tr := trs[c]
		var xs [][]float64
		var payload, ack []byte
		var rs, rsE, rsC []edgedrift.Result
		for b := 0; b < b1[c]; b++ {
			s, k := lc.stream(b)
			name := st.in.names[s]
			mE, det := twins[1][s], twins[2][s].Detector()
			if b < b0[c] {
				xs = st.in.batch(xs, s, k)
				var err error
				if rs, err = fleet.ProcessBatchInto(rs[:0], name, xs); err != nil {
					return err
				}
				rsE = mE.ProcessBatch(rsE[:0], xs)
				rsC = det.ProcessBatch(rsC[:0], xs)
				continue
			}
			dec, p, err := decodeBatch(st, tr, b, s, k, xs, payload)
			if err != nil {
				return err
			}
			payload = p

			a := time.Now()
			rs, err = fleet.ProcessBatchInto(rs[:0], name, dec)
			z := time.Now()
			if err != nil {
				return err
			}
			tr.record("fleet", b, a, z)

			a = time.Now()
			ack = wire.AppendResults(ack[:0], name, rs)
			tr.record("wire.ack_encode", b, a, time.Now())

			a = time.Now()
			rsE = mE.ProcessBatch(rsE[:0], dec)
			tr.record("edgedrift", b, a, time.Now())

			a = time.Now()
			rsC = det.ProcessBatch(rsC[:0], dec)
			tr.record("core", b, a, time.Now())

			if !lc.digestsMatch(b, rs) || !lc.digestsMatch(b, rsE) || !lc.digestsMatch(b, rsC) {
				twinBad[c]++
			}
		}
		return nil
	})
}

// replayModelLayers times the stateless scoring layers:
// Multi.PredictBatch, both instances' ScoreBatch, and their batched mat
// kernels. Scoring does not change a model, so these twins need no
// earlier batches.
func replayModelLayers(st *tierState, trs []*tracer, b0, b1 []int) error {
	twins, err := loadTwins(st, 3)
	if err != nil {
		return err
	}
	return eachConn(st.conns, func(c int, lc *loadConn) error {
		tr := trs[c]
		var xs [][]float64
		var payload []byte
		labels := make([]int, tierBatch)
		scores := make([]float64, tierBatch)
		rep := newMatReplay(twins[2][0].Model().Instance(0).Model().Config())
		for b := b0[c]; b < b1[c]; b++ {
			s, k := lc.stream(b)
			dec, p, err := decodeBatch(st, nil, b, s, k, xs, payload)
			if err != nil {
				return err
			}
			payload = p

			a := time.Now()
			twins[0][s].Model().PredictBatch(labels, scores, dec)
			tr.record("model", b, a, time.Now())

			m := twins[1][s].Model()
			a = time.Now()
			for i := 0; i < tierClasses; i++ {
				m.Instance(i).ScoreBatch(scores, dec)
			}
			tr.record("oselm", b, a, time.Now())

			m = twins[2][s].Model()
			a = time.Now()
			for i := 0; i < tierClasses; i++ {
				rep.scoreBatch(m.Instance(i).Model(), dec)
			}
			tr.record("mat", b, a, time.Now())
		}
		return nil
	})
}

// decodeAllocs counts the heap allocations of one ParseBatch+Decode of
// a batch payload, the shard's per-batch decode.
func decodeAllocs(payload []byte) (float64, error) {
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		pb, err := wire.ParseBatch(payload)
		if err != nil {
			return 0, err
		}
		decodeSink = pb.Decode(nil)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}
