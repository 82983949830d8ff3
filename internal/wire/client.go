package wire

import (
	"fmt"
	"time"

	"edgedrift/internal/core"
)

// Client is the synchronous request/reply view of a framed connection:
// one outstanding request at a time, matching the protocol's
// request/reply discipline. The router's migration, recovery and stats
// orchestration speaks through it; the router's hot forwarding path and
// the loadgen's pipelined drivers bypass it and move raw frames.
type Client struct {
	conn *Conn
	buf  []byte // reused request-encoding buffer
}

// NewClient wraps an already-handshaken connection.
func NewClient(conn *Conn) *Client { return &Client{conn: conn} }

// DialClient connects to a shard (or router) and handshakes.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	conn, err := Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SendBatch sends one stream batch and waits for its outcome: the
// per-sample results (appended to dst), or the shed sample count when
// the shard dropped the batch at admission (shed > 0, results nil —
// the samples were NOT processed).
func (c *Client) SendBatch(dst []core.Result, stream string, xs [][]float64) (results []core.Result, shed int, err error) {
	c.buf, err = AppendBatch(c.buf[:0], stream, xs)
	if err != nil {
		return dst, 0, err
	}
	if err := c.conn.WriteFrame(TypeBatch, c.buf); err != nil {
		return dst, 0, err
	}
	typ, p, err := c.conn.ReadFrame()
	if err != nil {
		return dst, 0, err
	}
	switch typ {
	case TypeBatchAck:
		gotStream, rs, err := ParseResults(p, dst)
		if err != nil {
			return dst, 0, err
		}
		if gotStream != stream {
			return dst, 0, fmt.Errorf("%w: ack for stream %q, want %q", ErrProtocol, gotStream, stream)
		}
		return rs, 0, nil
	case TypeShed:
		_, n, err := ParseShed(p)
		if err != nil {
			return dst, 0, err
		}
		return dst, n, nil
	case TypeError:
		return dst, 0, &RemoteError{Msg: string(p)}
	default:
		return dst, 0, fmt.Errorf("%w: unexpected reply type %#x to batch", ErrProtocol, typ)
	}
}

// call sends one request frame and reads its reply: the reply payload
// when it has type want, a RemoteError when the peer answered
// TypeError, ErrProtocol for any other type. The payload aliases the
// connection's frame buffer until the next read.
func (c *Client) call(typ byte, payload []byte, want byte) ([]byte, error) {
	if err := c.conn.WriteFrame(typ, payload); err != nil {
		return nil, err
	}
	got, p, err := c.conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	switch got {
	case want:
		return p, nil
	case TypeError:
		return nil, &RemoteError{Msg: string(p)}
	default:
		return nil, fmt.Errorf("%w: unexpected reply type %#x to request type %#x", ErrProtocol, got, typ)
	}
}

// MigrateOut asks the peer to export a stream and returns its
// checkpoint. The returned State owns its payload (copied out of the
// frame buffer).
func (c *Client) MigrateOut(stream string) (State, error) {
	p, err := c.call(TypeMigrateOut, appendString(nil, stream), TypeState)
	if err != nil {
		return State{}, err
	}
	st, err := ParseState(p)
	if err != nil {
		return State{}, err
	}
	st.Payload = append([]byte(nil), st.Payload...)
	return st, nil
}

// MigrateIn hands a checkpoint to the peer and waits for its ack.
func (c *Client) MigrateIn(st State) error {
	_, err := c.call(TypeMigrateIn, AppendState(nil, st), TypeMigrateAck)
	return err
}

// FetchState asks the peer for a stream's mergeable model state without
// deregistering it — the non-destructive read half of a cross-shard
// warm recovery. The returned states are copied out of the frame
// buffer. It fails (RemoteError) when the member is mid-reconstruction
// or has no mergeable state.
func (c *Client) FetchState(stream string) (MergeStates, error) {
	p, err := c.call(TypeFetchState, appendString(nil, stream), TypeMergeState)
	if err != nil {
		return MergeStates{}, err
	}
	ms, err := ParseMergeStates(p)
	if err != nil {
		return MergeStates{}, err
	}
	for i, st := range ms.States {
		ms.States[i] = append([]byte(nil), st...)
	}
	return ms, nil
}

// MergeSeed hands peer merge states to the shard owning stream, which
// replaces the stream's model with their closed-form combination. A
// non-zero ms.Fingerprint must match the target member's fingerprint —
// the shard rejects the seed otherwise, so an incompatible cross-shard
// merge fails loudly before any state is touched.
func (c *Client) MergeSeed(ms MergeStates) error {
	_, err := c.call(TypeMergeState, AppendMergeStates(nil, ms), TypeMergeAck)
	return err
}

// Stats fetches the peer's counter snapshot.
func (c *Client) Stats() (Stats, error) {
	p, err := c.call(TypeStats, nil, TypeStatsReply)
	if err != nil {
		return Stats{}, err
	}
	return ParseStats(p)
}
