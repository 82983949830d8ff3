// Package wire is the binary batch-ingest protocol of the distributed
// serve tier: length-prefixed frames over TCP carrying whole per-stream
// sample batches, their per-sample results, and the checkpoint payloads
// of live stream migrations.
//
// A sample is ~41 float64s, so per-sample framing would drown the
// detector's O(C·D + H²) arithmetic in syscalls and header bytes. Every
// Batch frame therefore carries one stream's whole batch, which the
// shard lands directly in Fleet.ProcessBatch — one member lock per
// batch — and acks with one frame of per-sample results. Results echo
// every field of core.Result bit-exactly (scores and distances as
// IEEE-754 bit patterns), which is what lets a client fingerprint a
// stream across a live migration and assert bit-identical continuation.
//
// Frame layout (all integers little-endian):
//
//	u32 length   — byte length of type + payload (≤ MaxFrame)
//	u8  type     — Type* constant
//	...payload
//
// The protocol is strictly request/reply per connection: a client sends
// one frame and reads one reply (TypeShed counts as the reply to an
// over-quota batch). That keeps connection state trivial and lets a
// router multiplex many client streams over a small pool of shard
// connections without reply matching.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"edgedrift/internal/core"
)

// Frame types.
const (
	// TypeHello opens a connection: payload is the 4-byte protocol magic
	// plus a version byte. The server answers TypeHelloAck (same
	// payload) or drops the connection.
	TypeHello = 0x01
	// TypeHelloAck acknowledges a Hello.
	TypeHelloAck = 0x02
	// TypeBatch carries one stream's sample batch (see AppendBatch).
	TypeBatch = 0x10
	// TypeBatchAck carries the per-sample results of a Batch (see
	// AppendResults).
	TypeBatchAck = 0x11
	// TypeShed tells the client its batch was dropped at admission
	// because the shard's ingest queue stayed full past the shed
	// deadline: payload is the stream name and the shed sample count.
	// The batch was NOT processed; the client decides whether to retry.
	TypeShed = 0x12
	// TypeMigrateOut asks the shard to export a stream: payload is the
	// stream name. The shard answers TypeState or TypeError.
	TypeMigrateOut = 0x20
	// TypeState carries an exported member checkpoint (see AppendState).
	TypeState = 0x21
	// TypeMigrateIn hands a checkpoint to the target shard: payload is
	// the same layout as TypeState. The shard answers TypeMigrateAck or
	// TypeError.
	TypeMigrateIn = 0x22
	// TypeMigrateAck acknowledges a MigrateIn: payload is the stream name.
	TypeMigrateAck = 0x23
	// TypeFetchState asks the shard for a stream's mergeable model state
	// WITHOUT deregistering it: payload is the stream name. The shard
	// answers TypeMergeState (one state) or TypeError. Unlike MigrateOut
	// this is non-destructive — the member keeps processing — and it only
	// succeeds for a monitoring member, so a cross-shard recovery can
	// never ship mid-reconstruction state.
	TypeFetchState = 0x24
	// TypeMergeState carries merge state (see AppendMergeStates): as a
	// reply to FetchState (one state, the member's fingerprint) or as a
	// request seeding a stream with peer states (answered by
	// TypeMergeAck or TypeError).
	TypeMergeState = 0x25
	// TypeMergeAck acknowledges a merge seed: payload is the stream name.
	TypeMergeAck = 0x26
	// TypeStats asks the shard for its counters; empty payload. The
	// shard answers TypeStatsReply.
	TypeStats = 0x30
	// TypeStatsReply carries the shard's counter snapshot (see
	// AppendStats).
	TypeStatsReply = 0x31
	// TypeError reports a request failure: payload is a UTF-8 message.
	TypeError = 0x7f
)

// MaxFrame bounds a frame's type+payload length: large enough for a
// 4096-sample batch of 500-dim float64 samples, small enough that a
// corrupt length prefix cannot demand a multi-gigabyte allocation.
const MaxFrame = 16 << 20

// Version is the protocol version carried in the Hello handshake.
const Version = 1

// helloMagic is the 4-byte protocol identifier in Hello/HelloAck.
var helloMagic = [4]byte{'E', 'D', 'W', '1'}

// ErrProtocol reports a malformed frame or handshake.
var ErrProtocol = errors.New("wire: protocol error")

// RemoteError is a TypeError reply surfaced to the caller.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// Conn is a framed connection. ReadFrame and WriteFrame are each safe
// for one concurrent caller (reads and writes may overlap); WriteFrame
// additionally serialises concurrent writers internally so response
// writers and shed notifications can share the connection.
type Conn struct {
	c net.Conn

	wmu  sync.Mutex
	wbuf []byte  // WriteFrame's frame image, at most maxKeptWrite bytes
	whdr [5]byte // a larger frame's header

	// ReadFrame's buffer, as large as the largest frame read (and at
	// least minRead): rbuf[:rpos] is the last frame returned, valid
	// until the next ReadFrame, and rbuf[rpos:rend] the bytes of the
	// frames after it that the same reads brought in.
	rbuf       []byte
	rpos, rend int
}

// minRead is the smallest read buffer a Conn keeps: room for a batch
// frame of 8 NSL-KDD samples and its ack in one read.
const minRead = 4 << 10

// maxKeptWrite is the largest frame WriteFrame lays out in the buffer a
// Conn keeps. A larger frame (a batch of more than ~215 NSL-KDD samples,
// a migration checkpoint) goes out as its header and then its payload,
// so it is neither copied nor allocated for.
const maxKeptWrite = 64 << 10

// NewConn wraps an established net.Conn. The caller still owes the
// Hello handshake (Handshake client-side, AcceptHandshake server-side).
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetDeadline bounds the next I/O operations on the connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// WriteFrame sends one frame (type byte plus payload). A frame of at
// most maxKeptWrite bytes is laid out in a buffer the Conn reuses and
// sent with one Write; a larger one is sent as two, the 5-byte header
// and then the caller's payload.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrProtocol, len(payload)+1)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := 5 + len(payload)
	if n > maxKeptWrite {
		binary.LittleEndian.PutUint32(c.whdr[:], uint32(len(payload)+1))
		c.whdr[4] = typ
		if _, err := c.c.Write(c.whdr[:]); err != nil {
			return err
		}
		_, err := c.c.Write(payload)
		return err
	}
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, 0, min(2*n, maxKeptWrite))
	}
	b := binary.LittleEndian.AppendUint32(c.wbuf[:0], uint32(len(payload)+1))
	_, err := c.c.Write(append(append(b, typ), payload...))
	return err
}

// ReadFrame reads one frame. The returned payload aliases an internal
// buffer and is valid only until the next ReadFrame call — callers that
// hand it to another goroutine must copy it first. Each read fills as
// much of the buffer as the connection has ready, so a frame that fits
// costs one read, and the bytes of the frames after it that arrive
// with it are kept for the calls that return them.
func (c *Conn) ReadFrame() (typ byte, payload []byte, err error) {
	// The last frame is spent: move what followed it to the front.
	c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
	c.rpos = 0
	if err := c.fill(4); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(c.rbuf)
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: implausible frame length %d", ErrProtocol, n)
	}
	end := 4 + int(n)
	if err := c.fill(end); err != nil {
		return 0, nil, err
	}
	c.rpos = end
	return c.rbuf[4], c.rbuf[5:end], nil
}

// fill reads until the buffer holds n bytes of the frame at its front,
// first growing it to n (minRead at least), keeping what it holds. It
// fails with io.EOF when the connection ends between frames and
// io.ErrUnexpectedEOF when it ends inside one.
func (c *Conn) fill(n int) error {
	if c.rend >= n {
		return nil
	}
	if len(c.rbuf) < n {
		grown := make([]byte, max(n, minRead))
		copy(grown, c.rbuf[:c.rend])
		c.rbuf = grown
	}
	k, err := io.ReadAtLeast(c.c, c.rbuf[c.rend:], n-c.rend)
	c.rend += k
	if err == io.EOF && c.rend > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Handshake runs the client half of the Hello exchange.
func (c *Conn) Handshake() error {
	if err := c.WriteFrame(TypeHello, append(helloMagic[:4:4], Version)); err != nil {
		return err
	}
	typ, p, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if typ != TypeHelloAck {
		return fmt.Errorf("%w: bad handshake ack", ErrProtocol)
	}
	return parseHello(p)
}

// AcceptHandshake runs the server half of the Hello exchange.
func (c *Conn) AcceptHandshake() error {
	typ, p, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if typ != TypeHello {
		return fmt.Errorf("%w: bad hello", ErrProtocol)
	}
	if err := parseHello(p); err != nil {
		return err
	}
	return c.WriteFrame(TypeHelloAck, append(helloMagic[:4:4], Version))
}

// parseHello checks a Hello or HelloAck payload: the protocol magic
// followed by this side's version.
func parseHello(p []byte) error {
	if len(p) != 5 || [4]byte(p[:4]) != helloMagic {
		return fmt.Errorf("%w: bad hello", ErrProtocol)
	}
	if p[4] != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrProtocol, p[4], Version)
	}
	return nil
}

// Dial connects to a shard and completes the handshake.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	if timeout > 0 {
		nc.SetDeadline(time.Now().Add(timeout))
	}
	if err := c.Handshake(); err != nil {
		nc.Close()
		return nil, err
	}
	if timeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	return c, nil
}

// --- Batch payloads ---

// AppendBatch encodes a Batch payload: stream name, sample geometry,
// then the samples as raw IEEE-754 bit patterns.
//
//	u16 streamLen | stream | u16 dims | u32 count | count×dims f64
func AppendBatch(dst []byte, stream string, xs [][]float64) ([]byte, error) {
	if len(stream) == 0 || len(stream) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: stream name length %d", ErrProtocol, len(stream))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrProtocol)
	}
	dims := len(xs[0])
	if dims == 0 || dims > math.MaxUint16 {
		return nil, fmt.Errorf("%w: sample dimension %d", ErrProtocol, dims)
	}
	dst = appendString(dst, stream)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dims))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		if len(x) != dims {
			return nil, fmt.Errorf("%w: ragged batch (%d-dim sample in %d-dim batch)", ErrProtocol, len(x), dims)
		}
		for _, v := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// Batch is a parsed Batch payload. Samples aliases the frame buffer —
// decode or copy before the next ReadFrame.
type Batch struct {
	Stream  string
	Dims    int
	Count   int
	Samples []byte // Count×Dims little-endian f64 bit patterns
}

// ParseBatch parses a Batch payload without decoding the samples, so a
// router can route on the header alone and relay the bytes untouched.
func ParseBatch(p []byte) (Batch, error) {
	var b Batch
	stream, rest, err := parseString(p)
	if err != nil {
		return b, err
	}
	if len(rest) < 6 {
		return b, fmt.Errorf("%w: short batch header", ErrProtocol)
	}
	b.Stream = stream
	b.Dims = int(binary.LittleEndian.Uint16(rest))
	b.Count = int(binary.LittleEndian.Uint32(rest[2:]))
	b.Samples = rest[6:]
	if b.Dims == 0 || b.Count == 0 {
		return b, fmt.Errorf("%w: empty batch geometry %dx%d", ErrProtocol, b.Count, b.Dims)
	}
	// Sized in uint64: on a 32-bit target Count·Dims·8 overflows int.
	if want := uint64(b.Count) * uint64(b.Dims) * 8; uint64(len(b.Samples)) != want {
		return b, fmt.Errorf("%w: batch payload %d bytes, want %d", ErrProtocol, len(b.Samples), want)
	}
	return b, nil
}

// Decode materialises the batch into dst, reusing its row headers (up
// to cap(dst)) and every row whose capacity fits a sample; the rows that
// do not fit are carved from one new slab. Decode(nil) therefore makes
// two allocations, and decoding into the previous result of a batch at
// least as wide makes none. The samples are copied out of the frame:
// the result stays valid after the next ReadFrame, until dst is reused.
func (b Batch) Decode(dst [][]float64) [][]float64 {
	if cap(dst) < b.Count {
		grown := make([][]float64, b.Count)
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:b.Count]
	short := 0
	for _, row := range dst {
		if cap(row) < b.Dims {
			short++
		}
	}
	var slab []float64
	if short > 0 {
		slab = make([]float64, short*b.Dims)
	}
	src := b.Samples
	for i, row := range dst {
		if cap(row) < b.Dims {
			row, slab = slab[:b.Dims:b.Dims], slab[b.Dims:]
		}
		row = row[:b.Dims]
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
		}
		src = src[8*b.Dims:]
		dst[i] = row
	}
	return dst
}

// --- Result payloads ---

// Per-sample result flags in a BatchAck.
const (
	flagDrift    = 1 << 0
	flagRejected = 1 << 1
)

// resultBytes is the fixed per-sample encoding size in a BatchAck:
// i32 label, u8 phase, u8 flags, f64 score bits, f64 dist bits.
const resultBytes = 4 + 1 + 1 + 8 + 8

// AppendResults encodes a BatchAck payload: the stream name and every
// core.Result field bit-exactly.
//
//	u16 streamLen | stream | u32 count | count × (i32 u8 u8 f64 f64)
func AppendResults(dst []byte, stream string, rs []core.Result) []byte {
	dst = appendString(dst, stream)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Label)))
		flags := byte(0)
		if r.DriftDetected {
			flags |= flagDrift
		}
		if r.Rejected {
			flags |= flagRejected
		}
		dst = append(dst, byte(r.Phase), flags)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Score))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Dist))
	}
	return dst
}

// ParseResults decodes a BatchAck payload, appending into dst.
func ParseResults(p []byte, dst []core.Result) (stream string, _ []core.Result, err error) {
	stream, rest, err := parseString(p)
	if err != nil {
		return "", dst, err
	}
	if len(rest) < 4 {
		return "", dst, fmt.Errorf("%w: short results header", ErrProtocol)
	}
	count := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if want := uint64(count) * resultBytes; uint64(len(rest)) != want {
		return "", dst, fmt.Errorf("%w: results payload %d bytes, want %d", ErrProtocol, len(rest), want)
	}
	for i := 0; i < int(count); i++ {
		q := rest[i*resultBytes:]
		flags := q[5]
		dst = append(dst, core.Result{
			Label:         int(int32(binary.LittleEndian.Uint32(q))),
			Phase:         core.Phase(q[4]),
			DriftDetected: flags&flagDrift != 0,
			Rejected:      flags&flagRejected != 0,
			Score:         math.Float64frombits(binary.LittleEndian.Uint64(q[6:])),
			Dist:          math.Float64frombits(binary.LittleEndian.Uint64(q[14:])),
		})
	}
	return stream, dst, nil
}

// --- Shed payloads ---

// AppendShed encodes a Shed payload: the stream and how many samples
// were dropped at admission.
func AppendShed(dst []byte, stream string, samples int) []byte {
	dst = appendString(dst, stream)
	return binary.LittleEndian.AppendUint32(dst, uint32(samples))
}

// ParseShed decodes a Shed payload.
func ParseShed(p []byte) (stream string, samples int, err error) {
	stream, rest, err := parseString(p)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 4 {
		return "", 0, fmt.Errorf("%w: shed payload %d bytes", ErrProtocol, len(rest))
	}
	return stream, int(binary.LittleEndian.Uint32(rest)), nil
}

// --- Migration payloads ---

// State is an exported member checkpoint in flight between shards: the
// wire twin of the fleet's member handoff (kind byte, lifetime
// counters, self-checksummed payload).
type State struct {
	Stream  string
	Kind    byte
	Samples uint64
	Drifts  uint64
	Payload []byte
}

// AppendState encodes a State (or MigrateIn) payload.
//
//	u16 streamLen | stream | u8 kind | u64 samples | u64 drifts | u32 payloadLen | payload
func AppendState(dst []byte, st State) []byte {
	dst = appendString(dst, st.Stream)
	dst = append(dst, st.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, st.Samples)
	dst = binary.LittleEndian.AppendUint64(dst, st.Drifts)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Payload)))
	return append(dst, st.Payload...)
}

// ParseState decodes a State payload. State.Payload aliases p — copy
// before the next ReadFrame if it outlives the frame.
func ParseState(p []byte) (State, error) {
	var st State
	stream, rest, err := parseString(p)
	if err != nil {
		return st, err
	}
	if len(rest) < 1+8+8+4 {
		return st, fmt.Errorf("%w: short state header", ErrProtocol)
	}
	st.Stream = stream
	st.Kind = rest[0]
	st.Samples = binary.LittleEndian.Uint64(rest[1:])
	st.Drifts = binary.LittleEndian.Uint64(rest[9:])
	plen := binary.LittleEndian.Uint32(rest[17:])
	rest = rest[21:]
	if len(rest) != int(plen) {
		return st, fmt.Errorf("%w: state payload %d bytes, want %d", ErrProtocol, len(rest), plen)
	}
	st.Payload = rest
	return st, nil
}

// --- Merge payloads ---

// MergeStates is cooperative model state in flight: a fetch reply
// carries one exported state and the member's merge fingerprint; a seed
// request carries the peer states a stream's model should be replaced
// with (Fingerprint then holds the expected fingerprint of the target,
// 0 to skip the check).
type MergeStates struct {
	Stream      string
	Fingerprint uint64
	States      [][]byte
}

// AppendMergeStates encodes a MergeState payload.
//
//	u16 streamLen | stream | u64 fingerprint | u32 count | count × (u32 len | state)
func AppendMergeStates(dst []byte, ms MergeStates) []byte {
	dst = appendString(dst, ms.Stream)
	dst = binary.LittleEndian.AppendUint64(dst, ms.Fingerprint)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ms.States)))
	for _, st := range ms.States {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st)))
		dst = append(dst, st...)
	}
	return dst
}

// ParseMergeStates decodes a MergeState payload. The states alias p —
// copy before the next ReadFrame if they outlive the frame.
func ParseMergeStates(p []byte) (MergeStates, error) {
	var ms MergeStates
	stream, rest, err := parseString(p)
	if err != nil {
		return ms, err
	}
	if len(rest) < 8+4 {
		return ms, fmt.Errorf("%w: short merge-state header", ErrProtocol)
	}
	ms.Stream = stream
	ms.Fingerprint = binary.LittleEndian.Uint64(rest)
	count := int(binary.LittleEndian.Uint32(rest[8:]))
	rest = rest[12:]
	if count == 0 || count > math.MaxUint16 {
		return ms, fmt.Errorf("%w: implausible merge-state count %d", ErrProtocol, count)
	}
	ms.States = make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return ms, fmt.Errorf("%w: merge-state payload truncated at state %d", ErrProtocol, i)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return ms, fmt.Errorf("%w: merge-state payload truncated at state %d", ErrProtocol, i)
		}
		ms.States = append(ms.States, rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return ms, fmt.Errorf("%w: merge-state payload has %d trailing bytes", ErrProtocol, len(rest))
	}
	return ms, nil
}

// --- Stats payloads ---

// Stats is a shard's counter snapshot: the accounting surface loadgen
// and the router use to prove zero lost and zero double-counted samples
// across sheds and migrations.
type Stats struct {
	Streams     uint32
	Samples     uint64
	Drifts      uint64
	Batches     uint64
	ShedSamples uint64
	ShedBatches uint64
	MigratedIn  uint64
	MigratedOut uint64
	QueueDepth  uint32
	// Adaptive-capacity fields: members currently demoted, lifetime
	// transition counters, and the shard's p99 batch-ingest latency
	// (0 before any batch). A router aggregation sums the counters and
	// takes the worst p99 across shards.
	Degraded           uint32
	Demotions          uint64
	Promotions         uint64
	TransitionFailures uint64
	IngestP99Ns        uint64
}

// AppendStats encodes a StatsReply payload.
func AppendStats(dst []byte, s Stats) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, s.Streams)
	for _, v := range [...]uint64{s.Samples, s.Drifts, s.Batches, s.ShedSamples, s.ShedBatches, s.MigratedIn, s.MigratedOut} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, s.QueueDepth)
	dst = binary.LittleEndian.AppendUint32(dst, s.Degraded)
	for _, v := range [...]uint64{s.Demotions, s.Promotions, s.TransitionFailures, s.IngestP99Ns} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// ParseStats decodes a StatsReply payload.
func ParseStats(p []byte) (Stats, error) {
	var s Stats
	if len(p) != 4+7*8+4+4+4*8 {
		return s, fmt.Errorf("%w: stats payload %d bytes", ErrProtocol, len(p))
	}
	s.Streams = binary.LittleEndian.Uint32(p)
	p = p[4:]
	for _, v := range [...]*uint64{&s.Samples, &s.Drifts, &s.Batches, &s.ShedSamples, &s.ShedBatches, &s.MigratedIn, &s.MigratedOut} {
		*v = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	s.QueueDepth = binary.LittleEndian.Uint32(p)
	p = p[4:]
	s.Degraded = binary.LittleEndian.Uint32(p)
	p = p[4:]
	for _, v := range [...]*uint64{&s.Demotions, &s.Promotions, &s.TransitionFailures, &s.IngestP99Ns} {
		*v = binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	return s, nil
}

// --- Small helpers ---

// ParseStream parses the u16-length-prefixed stream name that leads
// every stream-addressed payload, returning the remaining payload — so
// a router can parse just the name and relay the rest untouched.
func ParseStream(p []byte) (s string, rest []byte, err error) { return parseString(p) }

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func parseString(p []byte) (s string, rest []byte, err error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("%w: short string", ErrProtocol)
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return "", nil, fmt.Errorf("%w: truncated string", ErrProtocol)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}
