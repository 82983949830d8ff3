// Package router is the front half of the distributed serve tier: a
// consistent-hash router that places streams on shard processes
// (internal/shard) and relays wire batch frames to them. Clients speak
// the same protocol to the router as to a shard, so a single-shard
// deployment can drop the router with no client change.
//
// Placement starts on a consistent-hash ring (FNV-1a over addr#vnode
// points) so adding a shard only remaps ~1/N of the streams, and is
// then overridden per stream by live migration: Migrate exports the
// member from its current shard (sample-boundary checkpoint under the
// member's lock), imports it on the target, and flips the routing
// entry. The per-stream entry lock fences this against the forwarding
// path — forwards hold it shared, migration exclusively — so no batch
// for the moving stream is in flight anywhere between export and
// import, which is what makes the continuation bit-identical with zero
// lost or double-counted samples.
//
// The hot path is a zero-copy relay: the router parses only the batch
// header (for the stream name), forwards the raw payload to the owning
// shard over a pooled connection, and relays the reply frame verbatim.
package router

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"edgedrift/internal/metrics"
	"edgedrift/internal/wire"
)

// Config parameterises a router.
type Config struct {
	// Shards lists the shard addresses the ring is built over. Required.
	Shards []string
	// Vnodes is the number of ring points per shard; 0 means 64.
	Vnodes int
	// PoolSize bounds the idle connection pool per shard; 0 means 4.
	PoolSize int
	// DialTimeout applies to shard dials; 0 means 5s.
	DialTimeout time.Duration
	// Logf receives router lifecycle logs; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Router relays wire frames from clients to the shard owning each
// stream and orchestrates live stream migration.
type Router struct {
	cfg  Config
	ring *ring

	mu      sync.Mutex
	streams map[string]*entry
	pools   map[string]*pool

	acc *wire.Acceptor

	batches     metrics.Counter
	forwardErrs metrics.Counter
	migrations  metrics.Counter
	recoveries  metrics.Counter
}

// entry is one stream's routing state. Forwards hold mu shared while a
// batch is in flight; Migrate holds it exclusively, so the export/
// import round-trip observes a quiesced stream.
type entry struct {
	mu   sync.RWMutex
	addr string
}

// New builds a router over the given shard set (not yet listening).
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: config needs at least one shard address")
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 64
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	r := &Router{
		cfg:     cfg,
		ring:    newRing(cfg.Shards, cfg.Vnodes),
		streams: map[string]*entry{},
		pools:   map[string]*pool{},
	}
	r.acc = wire.NewAcceptor(r.serveConn)
	for _, addr := range cfg.Shards {
		r.pools[addr] = &pool{addr: addr, timeout: cfg.DialTimeout,
			ch: make(chan *wire.Conn, cfg.PoolSize)}
	}
	return r, nil
}

// entryFor returns the stream's routing entry, creating it from the
// ring on first sight.
func (r *Router) entryFor(stream string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.streams[stream]
	if !ok {
		e = &entry{addr: r.ring.lookup(stream)}
		r.streams[stream] = e
	}
	return e
}

// Where reports which shard currently owns a stream (resolving the
// placement if the stream is unseen).
func (r *Router) Where(stream string) string { return r.entryFor(stream).addr }

// Streams snapshots the routing table: stream -> shard address.
func (r *Router) Streams() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.streams))
	for s, e := range r.streams {
		out[s] = e.addr
	}
	return out
}

// Serve accepts client connections on ln until Close. It always
// returns a non-nil error (net.ErrClosed after a clean Close).
func (r *Router) Serve(ln net.Listener) error { return r.acc.Serve(ln) }

// Close stops accepting, closes live client connections and drains the
// shard pools.
func (r *Router) Close() error {
	err := r.acc.Close()
	r.mu.Lock()
	for _, p := range r.pools {
		p.drain()
	}
	r.mu.Unlock()
	return err
}

// serveConn relays one client connection's request/reply traffic.
func (r *Router) serveConn(c *wire.Conn) {
	if err := c.AcceptHandshake(); err != nil {
		return
	}
	for {
		typ, p, err := c.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !r.acc.Closed() {
				r.cfg.Logf("router: connection error: %v", err)
			}
			return
		}
		switch typ {
		case wire.TypeBatch:
			if !r.forward(c, p) {
				return
			}
		case wire.TypeStats:
			st, err := r.Stats()
			if err != nil {
				if c.WriteFrame(wire.TypeError, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			if c.WriteFrame(wire.TypeStatsReply, wire.AppendStats(nil, st)) != nil {
				return
			}
		default:
			// Migration is orchestrated by the router itself (admin API);
			// clients cannot move streams through the data plane.
			c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf("router: unexpected frame type %#x", typ)))
			return
		}
	}
}

// forward relays one batch frame to the owning shard and its reply
// (ack, shed or error) back verbatim, straight from the pooled shard
// connection's read buffer; the connection returns to the pool only
// after the reply is written. Returns false when the client connection
// is dead.
func (r *Router) forward(c *wire.Conn, p []byte) bool {
	b, err := wire.ParseBatch(p)
	if err != nil {
		return c.WriteFrame(wire.TypeError, []byte(err.Error())) == nil
	}
	e := r.entryFor(b.Stream)
	e.mu.RLock()
	pl := r.poolFor(e.addr)
	sc, typ, reply, err := pl.exchange(wire.TypeBatch, p)
	e.mu.RUnlock()
	if err != nil {
		r.forwardErrs.Inc()
		return c.WriteFrame(wire.TypeError, []byte(fmt.Sprintf("router: shard %s: %v", pl.addr, err))) == nil
	}
	r.batches.Inc()
	ok := c.WriteFrame(typ, reply) == nil
	pl.put(sc)
	return ok
}

// exchange runs one request/reply round-trip against the shard over a
// pooled connection and returns that connection with the reply, which
// aliases its read buffer: the caller puts it back once done with the
// reply. On error the connection is closed, not returned. There is no
// automatic retry: once the request may have been received, retrying
// could double-count samples.
func (p *pool) exchange(typ byte, payload []byte) (*wire.Conn, byte, []byte, error) {
	sc, err := p.get()
	if err != nil {
		return nil, 0, nil, err
	}
	if err := sc.WriteFrame(typ, payload); err != nil {
		sc.Close()
		return nil, 0, nil, err
	}
	rtyp, reply, err := sc.ReadFrame()
	if err != nil {
		sc.Close()
		return nil, 0, nil, err
	}
	return sc, rtyp, reply, nil
}

func (r *Router) poolFor(addr string) *pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pools[addr]
	if !ok {
		p = &pool{addr: addr, timeout: r.cfg.DialTimeout,
			ch: make(chan *wire.Conn, r.cfg.PoolSize)}
		r.pools[addr] = p
	}
	return p
}

// knownShard reports whether addr is in the configured shard set.
func (r *Router) knownShard(addr string) bool {
	for _, a := range r.cfg.Shards {
		if a == addr {
			return true
		}
	}
	return false
}

// Migrate moves a live stream to another shard: checkpoint round-trip
// (export on the source under the member's lock, import on the
// target with lifetime counters carried over), then flip the routing
// entry. The entry's exclusive lock guarantees no batch for the stream
// is in flight anywhere during the move, so the continuation on the
// target is bit-identical and no sample is lost or double-counted.
func (r *Router) Migrate(stream, to string) error {
	if !r.knownShard(to) {
		return fmt.Errorf("router: migrate %q: unknown target shard %q", stream, to)
	}
	e := r.entryFor(stream)
	e.mu.Lock()
	defer e.mu.Unlock()
	from := e.addr
	if from == to {
		return nil
	}
	st, err := r.migrateOut(from, stream)
	if err != nil {
		return fmt.Errorf("router: migrate %q out of %s: %w", stream, from, err)
	}
	if err := r.migrateIn(to, st); err != nil {
		// The member is currently homeless: best-effort re-import on the
		// source so the stream keeps serving there.
		if rerr := r.migrateIn(from, st); rerr != nil {
			return fmt.Errorf("router: migrate %q: import on %s failed (%v) AND re-import on %s failed (%v) — stream is offline, checkpoint lost",
				stream, to, err, from, rerr)
		}
		return fmt.Errorf("router: migrate %q into %s: %w (re-imported on %s)", stream, to, err, from)
	}
	e.addr = to
	r.migrations.Inc()
	return nil
}

func (r *Router) migrateOut(addr, stream string) (st wire.State, err error) {
	err = r.call(addr, func(c *wire.Client) (err error) {
		st, err = c.MigrateOut(stream)
		return err
	})
	return st, err
}

func (r *Router) migrateIn(addr string, st wire.State) error {
	return r.call(addr, func(c *wire.Client) error { return c.MigrateIn(st) })
}

// call runs one request against a pooled connection to addr. The
// connection goes back to the pool after success or a RemoteError,
// which leaves it in protocol sync; any other error means its state is
// unknown, so it is closed.
func (r *Router) call(addr string, fn func(*wire.Client) error) error {
	pl := r.poolFor(addr)
	sc, err := pl.get()
	if err != nil {
		return err
	}
	err = fn(wire.NewClient(sc))
	var re *wire.RemoteError
	if err == nil || errors.As(err, &re) {
		pl.put(sc)
	} else {
		sc.Close()
	}
	return err
}

// Recover re-seeds a drifted stream's model from the mergeable states
// of cohort peer streams, wherever the shards own them — the cross-
// shard form of the fleet's warm recovery. Each peer's state is fetched
// non-destructively under the peer entry's shared lock (its batches
// keep flowing; the donor shard snapshots at a sample boundary), then
// the combined seed is pushed to the target stream's shard under the
// target entry's exclusive lock, so no batch for the recovering stream
// is in flight anywhere while its model is replaced — the same fence
// that makes migration exact. Peer fingerprints must agree with each
// other (checked here) and with the target (checked by its shard).
func (r *Router) Recover(stream string, peers []string) error {
	var states [][]byte
	var fprint uint64
	for _, p := range peers {
		if p == stream {
			continue // the target's own post-drift state is not a donor
		}
		pe := r.entryFor(p)
		pe.mu.RLock()
		addr := pe.addr
		ms, err := r.fetchState(addr, p)
		pe.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("router: recover %q: fetch state of peer %q from %s: %w", stream, p, addr, err)
		}
		if fprint == 0 {
			fprint = ms.Fingerprint
		} else if ms.Fingerprint != fprint {
			return fmt.Errorf("router: recover %q: peer %q fingerprint %#x disagrees with %#x — not one cohort",
				stream, p, ms.Fingerprint, fprint)
		}
		states = append(states, ms.States...)
	}
	if len(states) == 0 {
		return fmt.Errorf("router: recover %q: no peer states collected", stream)
	}
	e := r.entryFor(stream)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := r.mergeSeed(e.addr, wire.MergeStates{
		Stream:      stream,
		Fingerprint: fprint,
		States:      states,
	}); err != nil {
		return fmt.Errorf("router: recover %q on %s: %w", stream, e.addr, err)
	}
	r.recoveries.Inc()
	return nil
}

func (r *Router) fetchState(addr, stream string) (ms wire.MergeStates, err error) {
	err = r.call(addr, func(c *wire.Client) (err error) {
		ms, err = c.FetchState(stream)
		return err
	})
	return ms, err
}

func (r *Router) mergeSeed(addr string, ms wire.MergeStates) error {
	return r.call(addr, func(c *wire.Client) error { return c.MergeSeed(ms) })
}

// Stats aggregates the counter snapshots of every shard.
func (r *Router) Stats() (wire.Stats, error) {
	var agg wire.Stats
	for _, addr := range r.cfg.Shards {
		var st wire.Stats
		if err := r.call(addr, func(c *wire.Client) (err error) {
			st, err = c.Stats()
			return err
		}); err != nil {
			return agg, fmt.Errorf("router: stats from %s: %w", addr, err)
		}
		agg.Streams += st.Streams
		agg.Samples += st.Samples
		agg.Drifts += st.Drifts
		agg.Batches += st.Batches
		agg.ShedSamples += st.ShedSamples
		agg.ShedBatches += st.ShedBatches
		agg.MigratedIn += st.MigratedIn
		agg.MigratedOut += st.MigratedOut
		agg.QueueDepth += st.QueueDepth
		agg.Degraded += st.Degraded
		agg.Demotions += st.Demotions
		agg.Promotions += st.Promotions
		agg.TransitionFailures += st.TransitionFailures
		// Latency does not sum: the tier's p99 is its worst shard's.
		if st.IngestP99Ns > agg.IngestP99Ns {
			agg.IngestP99Ns = st.IngestP99Ns
		}
	}
	return agg, nil
}

// WriteMetrics renders the router's Prometheus exposition.
func (r *Router) WriteMetrics(w io.Writer) error {
	r.mu.Lock()
	nStreams := len(r.streams)
	r.mu.Unlock()
	tw := metrics.NewTextWriter(w)
	tw.Counter("edgedrift_route_batches_total", "Batches relayed to shards.", nil, r.batches.Load())
	tw.Counter("edgedrift_route_forward_errors_total", "Batch relays that failed against the shard.", nil, r.forwardErrs.Load())
	tw.Counter("edgedrift_route_migrations_total", "Live stream migrations completed.", nil, r.migrations.Load())
	tw.Counter("edgedrift_route_recoveries_total", "Cross-shard warm recoveries completed.", nil, r.recoveries.Load())
	tw.Gauge("edgedrift_route_shards", "Shards in the ring.", nil, float64(len(r.cfg.Shards)))
	tw.Gauge("edgedrift_route_streams", "Streams in the routing table.", nil, float64(nStreams))
	tw.Gauge("edgedrift_route_connections", "Live client connections.", nil, float64(r.acc.Connections()))
	return tw.Err()
}

// AdminHandler serves the router's control plane:
//
//	POST /migrate?stream=S&to=ADDR        live-migrate a stream
//	POST /recover?stream=S&peers=A,B,...  warm-recover a stream from peers
//	GET  /streams                         routing table, one "stream addr" per line
//	GET  /metrics                         Prometheus exposition
func (r *Router) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/migrate", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		stream, to := req.FormValue("stream"), req.FormValue("to")
		if stream == "" || to == "" {
			http.Error(w, "need stream= and to=", http.StatusBadRequest)
			return
		}
		if err := r.Migrate(stream, to); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		fmt.Fprintf(w, "migrated %s -> %s\n", stream, to)
	})
	mux.HandleFunc("/recover", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		stream, peers := req.FormValue("stream"), req.FormValue("peers")
		if stream == "" || peers == "" {
			http.Error(w, "need stream= and peers= (comma-separated)", http.StatusBadRequest)
			return
		}
		if err := r.Recover(stream, strings.Split(peers, ",")); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		fmt.Fprintf(w, "recovered %s from %s\n", stream, peers)
	})
	mux.HandleFunc("/streams", func(w http.ResponseWriter, req *http.Request) {
		table := r.Streams()
		streams := make([]string, 0, len(table))
		for s := range table {
			streams = append(streams, s)
		}
		sort.Strings(streams)
		for _, s := range streams {
			fmt.Fprintf(w, "%s %s\n", s, table[s])
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// pool is a bounded idle-connection pool for one shard.
type pool struct {
	addr    string
	timeout time.Duration
	ch      chan *wire.Conn
}

// get returns an idle connection or dials a fresh one.
func (p *pool) get() (*wire.Conn, error) {
	select {
	case c := <-p.ch:
		return c, nil
	default:
	}
	return wire.Dial(p.addr, p.timeout)
}

// put parks a healthy connection, or closes it when the pool is full.
func (p *pool) put(c *wire.Conn) {
	select {
	case p.ch <- c:
	default:
		c.Close()
	}
}

// drain closes every idle connection.
func (p *pool) drain() {
	for {
		select {
		case c := <-p.ch:
			c.Close()
		default:
			return
		}
	}
}
