// Package shard is the per-process half of the distributed serve tier:
// a TCP server speaking the wire batch-ingest protocol in front of one
// edgedrift.Fleet. A deployment runs N shard processes behind the
// consistent-hash router (internal/router); each shard owns a disjoint
// subset of the streams and lands every Batch frame directly in the
// fleet's ProcessBatch, which takes the member lock once per batch.
//
// Ingest is bounded: each connection gets a reader goroutine, a bounded
// job queue, and one worker goroutine draining it in FIFO order (per
// -connection arrival order is the per-stream order contract, exactly
// as with a local fleet). When the queue is full the shed policy
// decides between backpressure (block the reader — TCP pushes back to
// the sender) and load-shedding (drop the batch at admission, tell the
// client with a Shed frame, count it). Shedding never drops silently:
// a shed batch is never processed, so sent == processed + shed holds
// exactly — the accounting loadgen asserts.
//
// Streams are created on first use by cloning the shard's template
// monitor, parsed once from its artifact, so the router can place new
// streams anywhere without a control round-trip. Live migration is the
// fleet member handoff over the wire: MigrateOut exports the member
// (sample-boundary snapshot, CRC-checksummed payload) and tombstones
// the stream so a late batch cannot silently respawn a fresh member;
// MigrateIn imports it with lifetime counters carried over.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"edgedrift"
	"edgedrift/internal/metrics"
	"edgedrift/internal/pressure"
	"edgedrift/internal/wire"
)

// Config parameterises a shard server.
type Config struct {
	// Template is a serialised Monitor artifact (Monitor.Save), parsed
	// once by New and cloned for every stream the shard has not seen
	// before. Required.
	Template []byte
	// Precision selects the member backend built from the template:
	// Float64/Float32 register a clone of the loaded Monitor (the
	// artifact's own backend governs), Fixed16 quantises it to a Q16.16
	// stage.
	Precision edgedrift.Precision
	// QueueDepth bounds each connection's ingest queue in batches;
	// 0 means 64.
	QueueDepth int
	// ShedAfter is the admission policy when a connection's queue is
	// full: 0 blocks the reader until space frees (pure backpressure —
	// TCP flow control pushes back to the sender), > 0 waits that long
	// and then sheds the batch, < 0 sheds immediately.
	ShedAfter time.Duration
	// Cohort, when set, registers every member this shard creates or
	// imports into that cooperation cohort, making its streams eligible
	// for warm recovery and cross-shard state exchange (all clones of
	// one template artifact share a merge fingerprint by construction).
	// Requires mergeable members: incompatible with Precision Fixed16.
	Cohort string
	// Fleet configures the shard's fleet.
	Fleet edgedrift.FleetConfig
	// PressureBudget, when > 0, runs the adaptive capacity governor
	// over this shard's fleet: every PressureInterval the shard feeds
	// its windowed p99 batch-ingest latency to one governor tick,
	// demoting the coldest members while the p99 stays over this
	// budget and promoting them back when it clears (see
	// internal/pressure for the hysteresis contract). 0 means no
	// governor.
	PressureBudget time.Duration
	// PressureInterval is the governor tick period; 0 means 500ms.
	PressureInterval time.Duration
	// Logf receives shard lifecycle logs; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Server is one shard process's ingest server.
type Server struct {
	cfg    Config
	fleet  *edgedrift.Fleet
	acc    *wire.Acceptor
	inputs int // the template's sample width; every batch must match

	mu         sync.Mutex
	tombstones map[string]bool // migrated-out streams: never auto-recreate

	// tmpl is the parsed template every new member is cloned from; Clone
	// marks it shared, so tmplMu serialises the connections creating
	// streams.
	tmplMu sync.Mutex
	tmpl   *edgedrift.Monitor

	batches       metrics.Counter
	shedSamples   metrics.Counter
	shedBatches   metrics.Counter
	migratedIn    metrics.Counter
	migratedOut   metrics.Counter
	mergeFetches  metrics.Counter
	mergeSeeds    metrics.Counter
	ingestLatency metrics.Histogram // per-batch ProcessBatch wall time, ns
	queueWait     metrics.Histogram // admission to worker pickup, ns
	ackWrite      metrics.Histogram // ack encode and write, ns
	queueDepth    atomic.Int64      // queued batches across all connections

	govMu sync.Mutex // guards gov (Tick vs Metrics scrapes)
	gov   *pressure.Governor
}

// New builds a shard server (not yet listening; call Serve).
func New(cfg Config) (*Server, error) {
	if len(cfg.Template) == 0 {
		return nil, errors.New("shard: config needs a template artifact")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Cohort != "" && cfg.Precision == edgedrift.Fixed16 {
		return nil, errors.New("shard: cohort requires mergeable members; Q16.16 detect-only members cannot cooperate")
	}
	s := &Server{
		cfg:        cfg,
		fleet:      edgedrift.NewFleet(cfg.Fleet),
		tombstones: map[string]bool{},
	}
	s.acc = wire.NewAcceptor(s.serveConn)
	// Validate the template once up front so a bad artifact fails at
	// startup, not on the first stream.
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(cfg.Template))
	if err == nil && cfg.Precision == edgedrift.Fixed16 {
		_, err = tmpl.QuantizeQ16()
	}
	if err != nil {
		return nil, fmt.Errorf("shard: bad template: %w", err)
	}
	s.tmpl, s.inputs = tmpl, tmpl.Model().Config().Inputs
	if cfg.PressureBudget > 0 {
		interval := cfg.PressureInterval
		if interval <= 0 {
			interval = 500 * time.Millisecond
		}
		s.gov = pressure.New(uint64(cfg.PressureBudget), s.fleet)
		s.acc.Go(func() { s.governorLoop(interval) })
	}
	return s, nil
}

// governorLoop drives the pressure governor: each tick samples the
// shard's p99 ingest latency and lets the governor decide, until Close.
// The governor itself is clock-free — this loop is the only place wall
// time enters the control path.
func (s *Server) governorLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var prev metrics.HistogramSnapshot
	for {
		select {
		case <-s.acc.Done():
			return
		case <-t.C:
			// Windowed p99: the lifetime histogram diffed against the
			// previous tick, so cleared pressure actually reads as
			// cleared (an idle window reads 0).
			cur := s.ingestLatency.Snapshot()
			win := cur.Delta(prev)
			prev = cur
			p99 := win.Quantile(0.99)
			s.govMu.Lock()
			act := s.gov.Tick(p99)
			s.govMu.Unlock()
			switch act.Kind {
			case pressure.Demote:
				s.cfg.Logf("shard: governor demoted %q (p99 %dns)", act.Stream, p99)
			case pressure.Promote:
				s.cfg.Logf("shard: governor promoted %q (pressure cleared)", act.Stream)
			}
		}
	}
}

// Fleet exposes the shard's fleet (metrics, health, tests).
func (s *Server) Fleet() *edgedrift.Fleet { return s.fleet }

// newMember clones the template into a fresh member stage.
func (s *Server) newMember() (edgedrift.Streaming, error) {
	s.tmplMu.Lock()
	defer s.tmplMu.Unlock()
	if s.cfg.Precision == edgedrift.Fixed16 {
		return s.tmpl.QuantizeQ16()
	}
	return s.tmpl.Clone()
}

// ensureStream registers a member for an unseen stream, cloning the
// template. Returns an error for tombstoned (migrated-out) streams.
func (s *Server) ensureStream(stream string) error {
	s.mu.Lock()
	if s.tombstones[stream] {
		s.mu.Unlock()
		return fmt.Errorf("shard: stream %q migrated out", stream)
	}
	s.mu.Unlock()
	st, err := s.newMember()
	if err != nil {
		return err
	}
	if s.cfg.Cohort != "" {
		mon, ok := st.(*edgedrift.Monitor)
		if !ok {
			return fmt.Errorf("shard: stream %q: cohort %q requires a mergeable member", stream, s.cfg.Cohort)
		}
		err = s.fleet.AddCohort(stream, mon, s.cfg.Cohort)
	} else {
		err = s.fleet.AddStage(stream, st)
	}
	if errors.Is(err, edgedrift.ErrAlreadyRegistered) {
		return nil // lost a create race; the member exists
	}
	return err
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (s *Server) Serve(ln net.Listener) error { return s.acc.Serve(ln) }

// Close stops the governor and accepting, closes every live connection
// and waits for the per-connection goroutines to drain.
func (s *Server) Close() error { return s.acc.Close() }

// job is one admitted batch: the decoded samples (job-owned — the
// frame buffer is reused by the reader), the stream they belong to and
// when the reader handed it to admission.
type job struct {
	stream   string
	xs       [][]float64
	admitted time.Time
}

// serveConn runs one connection: handshake, then the reader loop
// feeding a bounded queue drained by one worker goroutine. Batches are
// admitted (or shed) here; control frames (stats, migration) are
// answered inline — the router fences migrations so no batch for the
// moving stream is in flight anywhere when MigrateOut arrives.
//
// Batches decode into sample buffers that cycle between the reader and
// the worker through free, so a warm connection allocates only each
// batch's stream name.
func (s *Server) serveConn(c *wire.Conn) {
	if err := c.AcceptHandshake(); err != nil {
		return
	}
	jobs := make(chan job, s.cfg.QueueDepth)
	// Room for every buffer a full queue and the worker can hand back.
	free := make(chan [][]float64, s.cfg.QueueDepth+1)
	var workerWg sync.WaitGroup
	workerWg.Add(1)
	go func() {
		defer workerWg.Done()
		s.worker(c, jobs, free)
	}()
	defer func() {
		close(jobs)
		workerWg.Wait()
	}()

	for {
		typ, p, err := c.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.acc.Closed() {
				s.cfg.Logf("shard: connection error: %v", err)
			}
			return
		}
		switch typ {
		case wire.TypeBatch:
			b, err := wire.ParseBatch(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			var xs [][]float64
			select {
			case xs = <-free:
			default:
			}
			j := job{stream: b.Stream, xs: b.Decode(xs[:0]), admitted: time.Now()}
			if !s.admit(c, jobs, free, j) {
				return
			}
		case wire.TypeMigrateOut:
			stream, err := parseStreamOnly(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.migrateOut(c, stream)
		case wire.TypeMigrateIn:
			st, err := wire.ParseState(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.migrateIn(c, st)
		case wire.TypeFetchState:
			stream, err := parseStreamOnly(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.fetchState(c, stream)
		case wire.TypeMergeState:
			ms, err := wire.ParseMergeStates(p)
			if err != nil {
				c.WriteFrame(wire.TypeError, []byte(err.Error()))
				return
			}
			s.mergeSeed(c, ms)
		case wire.TypeStats:
			c.WriteFrame(wire.TypeStatsReply, wire.AppendStats(nil, s.Stats()))
		default:
			c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf("unexpected frame type %#x", typ)))
			return
		}
	}
}

// admit enqueues a batch under the shed policy, recycling a shed
// batch's buffer into free. Returns false only on a write failure
// (connection is dead).
func (s *Server) admit(c *wire.Conn, jobs chan job, free chan [][]float64, j job) bool {
	// Fast path: space available.
	select {
	case jobs <- j:
		s.queueDepth.Add(1)
		return true
	default:
	}
	if s.cfg.ShedAfter == 0 {
		// Pure backpressure: block the reader; TCP flow control stalls
		// the sender until the worker catches up.
		jobs <- j
		s.queueDepth.Add(1)
		return true
	}
	if s.cfg.ShedAfter > 0 {
		t := time.NewTimer(s.cfg.ShedAfter)
		defer t.Stop()
		select {
		case jobs <- j:
			s.queueDepth.Add(1)
			return true
		case <-t.C:
		}
	}
	// Shed: the batch is dropped at admission, never processed.
	s.shedBatches.Inc()
	s.shedSamples.Add(uint64(len(j.xs)))
	ok := c.WriteFrame(wire.TypeShed, wire.AppendShed(nil, j.stream, len(j.xs))) == nil
	recycle(free, j.xs)
	return ok
}

// recycle returns a job's sample buffer to its connection's free list,
// dropping it when the list is full.
func recycle(free chan [][]float64, xs [][]float64) {
	select {
	case free <- xs:
	default:
	}
}

// worker drains one connection's queue in FIFO order: per-connection
// arrival order is the per-stream sample order, as with a local fleet.
// A batch whose samples are not the template's width is answered with
// an error frame, in order, and never reaches a member: every member
// stage panics on a sample of the wrong width. Each batch's buffer goes
// back to free once the fleet is done with it. The worker times the
// three stages the shard exports: queue wait, compute and ack write.
func (s *Server) worker(c *wire.Conn, jobs chan job, free chan [][]float64) {
	var results []edgedrift.Result
	var ack []byte
	for j := range jobs {
		pickup := time.Now()
		s.queueDepth.Add(-1)
		s.queueWait.Observe(uint64(pickup.Sub(j.admitted)))
		err := s.process(&results, j)
		recycle(free, j.xs)
		if err != nil {
			c.WriteFrame(wire.TypeError, []byte(err.Error()))
			continue
		}
		s.batches.Inc()
		computed := time.Now()
		s.ingestLatency.Observe(uint64(computed.Sub(pickup)))
		ack = wire.AppendResults(ack[:0], j.stream, results)
		if err := c.WriteFrame(wire.TypeBatchAck, ack); err != nil {
			return
		}
		s.ackWrite.Observe(uint64(time.Since(computed)))
	}
}

// process runs one batch through the fleet into *results, creating the
// stream from the template on first sight. A batch of the wrong width
// never reaches a member.
func (s *Server) process(results *[]edgedrift.Result, j job) error {
	// The wire format gives every row of a batch one width.
	if len(j.xs) > 0 && len(j.xs[0]) != s.inputs {
		return fmt.Errorf("shard: batch sample dimension %d, want %d", len(j.xs[0]), s.inputs)
	}
	var err error
	*results, err = s.fleet.ProcessBatchInto((*results)[:0], j.stream, j.xs)
	if err == nil {
		return nil
	}
	// Unknown stream: first sight — clone the template and retry.
	if err := s.ensureStream(j.stream); err != nil {
		return err
	}
	*results, err = s.fleet.ProcessBatchInto((*results)[:0], j.stream, j.xs)
	return err
}

// migrateOut exports a member and tombstones the stream.
func (s *Server) migrateOut(c *wire.Conn, stream string) {
	st, err := s.fleet.ExportMember(stream)
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mu.Lock()
	s.tombstones[stream] = true
	s.mu.Unlock()
	s.migratedOut.Inc()
	c.WriteFrame(wire.TypeState, wire.AppendState(nil, wire.State{
		Stream:  stream,
		Kind:    st.Kind,
		Samples: st.Samples,
		Drifts:  st.Drifts,
		Payload: st.Payload,
	}))
}

// migrateIn imports a member exported by another shard. The wire State
// frame does not carry a cohort — the member joins this shard's
// configured cohort (cohort membership is a placement property, and the
// router co-locates a cohort's shards by configuration).
func (s *Server) migrateIn(c *wire.Conn, st wire.State) {
	err := s.fleet.ImportMember(&edgedrift.MemberState{
		ID:      st.Stream,
		Kind:    st.Kind,
		Cohort:  s.cfg.Cohort,
		Samples: st.Samples,
		Drifts:  st.Drifts,
		Payload: append([]byte(nil), st.Payload...),
	})
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mu.Lock()
	delete(s.tombstones, st.Stream) // the stream may return later
	s.mu.Unlock()
	s.migratedIn.Inc()
	c.WriteFrame(wire.TypeMigrateAck, nil)
}

// fetchState exports a member's mergeable model state without
// deregistering it — unlike migrateOut there is no tombstone and the
// member keeps processing; this is the donor half of a cross-shard
// warm recovery.
func (s *Server) fetchState(c *wire.Conn, stream string) {
	state, fprint, err := s.fleet.ExportMergeState(stream)
	if err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mergeFetches.Inc()
	c.WriteFrame(wire.TypeMergeState, wire.AppendMergeStates(nil, wire.MergeStates{
		Stream:      stream,
		Fingerprint: fprint,
		States:      [][]byte{state},
	}))
}

// mergeSeed replaces a local member's model with the closed-form merge
// of the delivered peer states (the recovery half of a cross-shard warm
// recovery). A non-zero fingerprint in the frame must match the target
// member's — a cross-fleet topology mismatch fails loudly before any
// state is touched.
func (s *Server) mergeSeed(c *wire.Conn, ms wire.MergeStates) {
	if ms.Fingerprint != 0 {
		got, err := s.fleet.MemberFingerprint(ms.Stream)
		if err != nil {
			c.WriteFrame(wire.TypeError, []byte(err.Error()))
			return
		}
		if got != ms.Fingerprint {
			c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf(
				"shard: stream %q fingerprint %#x does not match seed fingerprint %#x", ms.Stream, got, ms.Fingerprint)))
			return
		}
	}
	if err := s.fleet.MergeSeedMember(ms.Stream, ms.States); err != nil {
		c.WriteFrame(wire.TypeError, []byte(err.Error()))
		return
	}
	s.mergeSeeds.Inc()
	c.WriteFrame(wire.TypeMergeAck, nil)
}

// Stats snapshots the shard's counters for the wire Stats reply.
func (s *Server) Stats() wire.Stats {
	m := s.fleet.Metrics()
	qd := s.queueDepth.Load()
	if qd < 0 {
		qd = 0
	}
	return wire.Stats{
		Streams:            uint32(m.Streams),
		Samples:            m.Samples,
		Drifts:             m.Drifts,
		Batches:            s.batches.Load(),
		ShedSamples:        s.shedSamples.Load(),
		ShedBatches:        s.shedBatches.Load(),
		MigratedIn:         s.migratedIn.Load(),
		MigratedOut:        s.migratedOut.Load(),
		QueueDepth:         uint32(qd),
		Degraded:           uint32(m.Degraded),
		Demotions:          m.Demotions,
		Promotions:         m.Promotions,
		TransitionFailures: m.TransitionFailures,
		IngestP99Ns:        s.ingestLatency.Quantile(0.99),
	}
}

// WriteMetrics renders the shard's Prometheus exposition: the fleet's
// full roll-up plus the shard-level ingest families.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.fleet.WriteMetrics(w); err != nil {
		return err
	}
	tw := metrics.NewTextWriter(w)
	tw.Counter("edgedrift_shard_batches_total", "Batches processed by this shard.", nil, s.batches.Load())
	tw.Counter("edgedrift_shard_shed_batches_total", "Batches dropped at admission (queue full past the shed deadline).", nil, s.shedBatches.Load())
	tw.Counter("edgedrift_shard_shed_samples_total", "Samples inside shed batches (never processed).", nil, s.shedSamples.Load())
	tw.Counter("edgedrift_shard_migrations_in_total", "Streams imported via live migration.", nil, s.migratedIn.Load())
	tw.Counter("edgedrift_shard_migrations_out_total", "Streams exported via live migration.", nil, s.migratedOut.Load())
	tw.Counter("edgedrift_shard_merge_fetches_total", "Mergeable model states served to peers (cross-shard recovery donors).", nil, s.mergeFetches.Load())
	tw.Counter("edgedrift_shard_merge_seeds_total", "Members re-seeded from peer merge states (cross-shard recovery targets).", nil, s.mergeSeeds.Load())
	tw.Gauge("edgedrift_shard_queue_depth", "Batches queued across all ingest connections.", nil, float64(s.queueDepth.Load()))
	tw.Gauge("edgedrift_shard_connections", "Live ingest connections.", nil, float64(s.acc.Connections()))
	if lat := s.ingestLatency.Snapshot(); lat.Count > 0 {
		tw.Histogram("edgedrift_shard_ingest_latency_seconds", "Per-batch fleet ProcessBatch wall time.", nil, lat, 1e-9)
	}
	if qw := s.queueWait.Snapshot(); qw.Count > 0 {
		tw.Histogram("edgedrift_shard_queue_wait_seconds", "Per-batch wait from admission to worker pickup.", nil, qw, 1e-9)
	}
	if aw := s.ackWrite.Snapshot(); aw.Count > 0 {
		tw.Histogram("edgedrift_shard_ack_write_seconds", "Per-batch ack encode and write time.", nil, aw, 1e-9)
	}
	if s.gov != nil {
		s.govMu.Lock()
		gm := s.gov.Metrics()
		s.govMu.Unlock()
		tw.Counter("edgedrift_shard_governor_ticks_total", "Pressure-governor control-loop ticks.", nil, gm.Ticks)
		tw.Counter("edgedrift_shard_governor_over_budget_total", "Ticks with the windowed ingest p99 over the governor budget.", nil, gm.OverBudget)
		tw.Counter("edgedrift_shard_governor_demotions_total", "Members demoted by the governor.", nil, gm.Demotions)
		tw.Counter("edgedrift_shard_governor_promotions_total", "Members promoted back by the governor.", nil, gm.Promotions)
		tw.Counter("edgedrift_shard_governor_errors_total", "Transitions the fleet refused to the governor.", nil, gm.Errors)
		tw.Gauge("edgedrift_shard_governor_demoted", "Members currently demoted by the governor.", nil, float64(gm.Demoted))
	}
	return tw.Err()
}

// MetricsHandler serves WriteMetrics over HTTP (the /metrics endpoint).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// parseStreamOnly parses a payload that is exactly one stream name.
func parseStreamOnly(p []byte) (string, error) {
	stream, rest, err := wire.ParseStream(p)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after stream name", len(rest))
	}
	return stream, nil
}
