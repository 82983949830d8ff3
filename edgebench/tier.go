package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/rng"
	"edgedrift/internal/router"
	"edgedrift/internal/shard"
	"edgedrift/internal/wire"
)

// tier-fanin runs the serve tier in this process: a router and one
// shard, each behind its own loopback TCP listener, serving 1024
// streams of the NSL-KDD surrogate monitor. The load is a closed loop
// over one connection per core, each sending its streams' batches
// round-robin and the next batch only after the previous ack.
const (
	tierHidden  = 22
	tierClasses = 2
	tierWindow  = 100
	tierStreams = 1024
	tierBatch   = 8
	tierPoolN   = 16384 // distinct training-distribution samples the streams walk
	// tierSetupRounds is how many batches each stream gets before
	// timing: the first creates the member from the template, the
	// second warms it.
	tierSetupRounds = 2
)

// tierConns is the number of load connections, each driven by one
// goroutine: one per core, at most two.
func tierConns() int { return min(2, runtime.NumCPU()) }

// tierInputs is everything tier-fanin feeds the tier, generated from
// the seed: the template's training set and a pool of further samples
// from the same stationary distribution, which stream s walks from its
// own seeded offset.
type tierInputs struct {
	trainX [][]float64
	trainY []int
	pool   [][]float64
	offs   []int
	names  []string
	digest uint64
}

func newTierInputs(seed uint64) *tierInputs {
	p := nslkdd.DefaultParams()
	p.Seed = seed
	p.TrainN = nslkdd.DefaultTrainN + tierPoolN
	p.TestN = 0
	ds := nslkdd.Generate(p)
	in := &tierInputs{
		trainX: ds.TrainX[:nslkdd.DefaultTrainN],
		trainY: ds.TrainY[:nslkdd.DefaultTrainN],
		pool:   ds.TrainX[nslkdd.DefaultTrainN:],
		offs:   make([]int, tierStreams),
		names:  make([]string, tierStreams),
	}
	r := rng.New(seed).Split()
	for s := range in.offs {
		in.offs[s] = r.Intn(tierPoolN)
		in.names[s] = fmt.Sprintf("s%04d", s)
	}
	var d inputDigest
	d.rows(in.trainX)
	d.ints(in.trainY...)
	d.rows(in.pool)
	d.ints(in.offs...)
	in.digest = uint64(d)
	return in
}

// batch returns stream s's k-th batch in xs.
func (in *tierInputs) batch(xs [][]float64, s, k int) [][]float64 {
	xs = xs[:0]
	base := in.offs[s] + k*tierBatch
	for j := 0; j < tierBatch; j++ {
		xs = append(xs, in.pool[(base+j)%tierPoolN])
	}
	return xs
}

// fitTemplate fits the NSL-KDD surrogate monitor and returns its
// artifact, the template every member is cloned from.
func fitTemplate(in *tierInputs, seed uint64) ([]byte, error) {
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: tierClasses, Inputs: nslkdd.Features, Hidden: tierHidden,
		Window: tierWindow, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if err := mon.Fit(in.trainX, in.trainY); err != nil {
		return nil, err
	}
	var art bytes.Buffer
	if err := mon.Save(&art, edgedrift.Float64); err != nil {
		return nil, err
	}
	return art.Bytes(), nil
}

// loadConn is one load connection: the streams it owns, visited
// round-robin, and the digest of every result it received, in send
// order (batch b's sample j is digest b·tierBatch+j).
type loadConn struct {
	conn    *wire.Conn
	streams []int
	batches int          // batches sent
	lost    map[int]bool // batches shed or answered with an error: never processed
	digests series
	lat     series // round trip per batch in the timed region
	acked   int64
	shed    int64
	errs    int64
	payload []byte
	xs      [][]float64
	rs      []edgedrift.Result
}

// stream returns the stream and per-stream batch number of batch b.
func (lc *loadConn) stream(b int) (s, k int) {
	return lc.streams[b%len(lc.streams)], b / len(lc.streams)
}

// step sends the connection's next batch and waits for its reply,
// returning the round trip from write to parsed ack. With a tracer it
// records the encode and the round trip as spans of the request.
func (lc *loadConn) step(in *tierInputs, tr *tracer) (time.Duration, error) {
	b := lc.batches
	s, k := lc.stream(b)
	lc.xs = in.batch(lc.xs, s, k)
	e0 := time.Now()
	var err error
	if lc.payload, err = wire.AppendBatch(lc.payload[:0], in.names[s], lc.xs); err != nil {
		return 0, err
	}
	a := time.Now()
	if err := lc.conn.WriteFrame(wire.TypeBatch, lc.payload); err != nil {
		return 0, err
	}
	typ, p, err := lc.conn.ReadFrame()
	if err != nil {
		return 0, err
	}
	lost := true
	switch typ {
	case wire.TypeBatchAck:
		var name string
		if name, lc.rs, err = wire.ParseResults(p, lc.rs[:0]); err != nil {
			return 0, err
		}
		if name != in.names[s] || len(lc.rs) != tierBatch {
			return 0, fmt.Errorf("ack for %q with %d results, want %q with %d", name, len(lc.rs), in.names[s], tierBatch)
		}
		lost = false
		lc.acked += tierBatch
	case wire.TypeShed:
		_, n, err := wire.ParseShed(p)
		if err != nil {
			return 0, err
		}
		lc.shed += int64(n)
	case wire.TypeError:
		lc.errs++
	default:
		return 0, fmt.Errorf("unexpected reply type %#x", typ)
	}
	z := time.Now()
	for j := 0; j < tierBatch; j++ {
		var d uint64
		if !lost {
			d = resultDigest(lc.rs[j])
		}
		lc.digests.add(d)
	}
	if lost {
		lc.lost[b] = true
	}
	lc.batches++
	if tr != nil {
		tr.record("wire.encode", b, e0, a)
		tr.record("router", b, a, z)
	}
	return z.Sub(a), nil
}

// tierState is one built tier: the template, the shard and router
// servers, and the load connections to the router.
type tierState struct {
	in       *tierInputs
	artifact []byte
	srv      *shard.Server
	rt       *router.Router
	serving  sync.WaitGroup
	conns    []*loadConn
}

// buildTier generates the inputs, fits the template, starts the shard
// and the router on loopback listeners, connects the load, and sends
// every stream its set-up rounds: member creation and warm-up.
func buildTier(seed uint64) (*tierState, error) {
	in := newTierInputs(seed)
	art, err := fitTemplate(in, seed)
	if err != nil {
		return nil, err
	}
	st := &tierState{in: in, artifact: art}
	if st.srv, err = shard.New(shard.Config{Template: art}); err != nil {
		return nil, err
	}
	shardAddr, err := serveOn(&st.serving, st.srv.Serve)
	if err != nil {
		st.close()
		return nil, err
	}
	if st.rt, err = router.New(router.Config{Shards: []string{shardAddr}}); err != nil {
		st.close()
		return nil, err
	}
	routerAddr, err := serveOn(&st.serving, st.rt.Serve)
	if err != nil {
		st.close()
		return nil, err
	}
	if st.conns, err = dialLoad(routerAddr); err != nil {
		st.close()
		return nil, err
	}
	if err := st.rounds(tierSetupRounds); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// serveOn starts a server on a fresh loopback listener; serving is
// done once the server has been closed and its Serve has returned.
func serveOn(serving *sync.WaitGroup, serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	serving.Add(1)
	go func() {
		defer serving.Done()
		serve(ln) // returns net.ErrClosed once the server is closed
	}()
	return ln.Addr().String(), nil
}

// dialLoad opens the load connections and assigns each its streams.
func dialLoad(addr string) ([]*loadConn, error) {
	n := tierConns()
	conns := make([]*loadConn, n)
	for c := range conns {
		conn, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			closeLoad(conns)
			return nil, err
		}
		conns[c] = &loadConn{conn: conn, lost: map[int]bool{}}
	}
	for s := 0; s < tierStreams; s++ {
		conns[s%n].streams = append(conns[s%n].streams, s)
	}
	return conns, nil
}

func closeLoad(conns []*loadConn) {
	for _, lc := range conns {
		if lc != nil {
			lc.conn.Close()
		}
	}
}

// close stops the load, the router and the shard, and waits for their
// serving goroutines to return.
func (st *tierState) close() {
	closeLoad(st.conns)
	if st.rt != nil {
		st.rt.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	st.serving.Wait()
}

// eachConn runs fn once per load connection, concurrently, and returns
// the first error.
func eachConn(conns []*loadConn, fn func(c int, lc *loadConn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for c, lc := range conns {
		wg.Add(1)
		go func(c int, lc *loadConn) {
			defer wg.Done()
			errs[c] = fn(c, lc)
		}(c, lc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rounds sends every stream n more batches.
func (st *tierState) rounds(n int) error {
	return eachConn(st.conns, func(c int, lc *loadConn) error {
		for i := 0; i < n*len(lc.streams); i++ {
			if _, err := lc.step(st.in, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// closedLoop drives every load connection until d has passed, recording
// round trips, and returns the samples acknowledged in that time and
// the wall time up to the last reply.
func (st *tierState) closedLoop(d time.Duration) (int64, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	ends := make([]time.Time, len(st.conns))
	acked0 := st.books().acked
	err := eachConn(st.conns, func(c int, lc *loadConn) error {
		for {
			rtt, err := lc.step(st.in, nil)
			if err != nil {
				return err
			}
			lc.lat.add(uint64(rtt))
			if ends[c] = time.Now(); !ends[c].Before(deadline) {
				return nil
			}
		}
	})
	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return st.books().acked - acked0, last.Sub(start), err
}

// books totals the load connections' counters, in samples, and the
// bytes their result logs have allocated.
type books struct{ sent, acked, shed, refused, own int64 }

func (st *tierState) books() (b books) {
	for _, lc := range st.conns {
		b.sent += int64(lc.batches) * tierBatch
		b.acked += lc.acked
		b.shed += lc.shed
		b.refused += lc.errs * tierBatch
		b.own += lc.digests.allocated + lc.lat.allocated
	}
	return b
}

// lost is the samples the tier never processed: shed or refused.
func (b books) lost() int64 { return b.shed + b.refused }

// referenceMismatches replays every stream's batches, in order, one
// sample at a time through a monitor loaded from the template, and
// counts the results the tier returned that are not bit-identical: the
// tier ≡ local contract. Batches the tier shed or refused are skipped,
// as the member never saw them.
func (st *tierState) referenceMismatches() (int64, error) {
	bad := make([]int64, len(st.conns))
	err := eachConn(st.conns, func(c int, lc *loadConn) error {
		var xs [][]float64
		for p, s := range lc.streams {
			mon, err := edgedrift.LoadMonitor(bytes.NewReader(st.artifact))
			if err != nil {
				return err
			}
			for b := p; b < lc.batches; b += len(lc.streams) {
				if lc.lost[b] {
					continue
				}
				_, k := lc.stream(b)
				xs = st.in.batch(xs, s, k)
				for j, x := range xs {
					if resultDigest(mon.Process(x)) != lc.digests.at(b*tierBatch+j) {
						bad[c]++
					}
				}
			}
		}
		return nil
	})
	var n int64
	for _, b := range bad {
		n += b
	}
	return n, err
}

func tierParams(st *tierState) map[string]any {
	return map[string]any{
		"inputs": nslkdd.Features, "hidden": tierHidden, "classes": tierClasses,
		"window": tierWindow, "precision": "f64", "streams": tierStreams,
		"batch": tierBatch, "connections": len(st.conns), "pool_samples": tierPoolN,
		"setup_rounds": tierSetupRounds, "shards": 1, "shed_policy": "backpressure",
		"loop":         "closed, 1 goroutine per connection, next batch after the previous ack",
		"input_digest": fmt.Sprintf("%016x", st.in.digest),
	}
}

func runTier(cfg config) (*outcome, error) {
	build := func() (*tierState, error) { return buildTier(cfg.seed) }
	if cfg.trace {
		st, err := build()
		if err != nil {
			return nil, err
		}
		defer st.close()
		return traceTier(cfg, st)
	}
	st, setupS, err := setUp(cfg.setups, build, (*tierState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := newOutcome(tierParams(st))

	before := st.books()
	reg := startRegion()
	acked, wall, err := st.closedLoop(cfg.dur)
	if err != nil {
		return nil, err
	}
	cpu, alloc := reg.end()
	after := st.books()

	var lat series
	for _, lc := range st.conns {
		for i := 0; i < lc.lat.n; i++ {
			lat.add(lc.lat.at(i))
		}
	}
	q := latencyQuantilesUs(&lat, 0.5, 0.99)
	out.attempted = after.sent - before.sent
	out.failed = after.lost() - before.lost()
	out.set("samples_per_s", float64(acked)/wall.Seconds())
	out.set("latency_p50_us", q[0])
	out.set("latency_p99_us", q[1])
	out.set("latency_samples", float64(lat.n))
	out.set("cpu_us_per_sample", float64(cpu.Microseconds())/float64(acked))
	out.set("alloc_bytes_per_sample", float64(int64(alloc)-(after.own-before.own))/float64(acked))
	out.set("retained_bytes", float64(st.srv.Fleet().MemoryBytes()))
	out.set("setup_s", setupS)
	out.set("failed_ratio", float64(out.failed)/float64(out.attempted))

	stats, err := st.checkConservation(out)
	if err != nil {
		return nil, err
	}
	out.set("false_alarms", float64(stats.Drifts))
	mismatches, err := st.referenceMismatches()
	if err != nil {
		return nil, err
	}
	out.set("result_mismatches", float64(mismatches))
	if mismatches > 0 {
		out.fail("%d results differ from the per-sample reference replay", mismatches)
	}
	// The heap is measured with the tier alone kept alive: the inputs
	// and result logs are the benchmark's own.
	st.in = nil
	for _, lc := range st.conns {
		lc.digests, lc.lat = series{}, series{}
	}
	out.set("heap_inuse_bytes", float64(heapInuseAfterGC()))
	return out, nil
}

// checkConservation asks the tier for its counters through the router
// and checks sent == acked + shed against the client's own books and
// the shard's wire.Stats.
func (st *tierState) checkConservation(out *outcome) (wire.Stats, error) {
	stats, err := wire.NewClient(st.conns[0].conn).Stats()
	if err != nil {
		return stats, err
	}
	b := st.books()
	if b.refused > 0 {
		out.fail("%d samples answered with an error frame", b.refused)
	}
	if b.sent != b.acked+b.lost() {
		out.fail("conservation: sent %d != acked %d + shed %d + refused %d", b.sent, b.acked, b.shed, b.refused)
	}
	if int64(stats.Samples) != b.acked || int64(stats.ShedSamples) != b.shed {
		out.fail("conservation: shard counts %d processed, %d shed; clients %d acked, %d shed",
			stats.Samples, stats.ShedSamples, b.acked, b.shed)
	}
	return stats, nil
}
