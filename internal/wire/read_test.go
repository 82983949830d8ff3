package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// chunkConn is a net.Conn whose reads deliver a script of chunks in
// turn: each Read returns bytes of the current chunk only, at most per
// of them when per > 0, and io.EOF once the script is spent.
type chunkConn struct {
	net.Conn
	chunks [][]byte
	per    int
	reads  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	if c.per > 0 && len(p) > c.per {
		p = p[:c.per]
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// frameBytes is the wire image of one frame, as WriteFrame sends it.
func frameBytes(typ byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)+1))
	return append(append(b, typ), payload...)
}

// payloadOf returns n bytes that differ from one frame to the next.
func payloadOf(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) + seed
	}
	return p
}

// readFrames reads want's frames from c in order and fails on any
// difference.
func readFrames(t *testing.T, c *Conn, want [][]byte) {
	t.Helper()
	for i, w := range want {
		typ, p, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != TypeState || !bytes.Equal(p, w) {
			t.Fatalf("frame %d: type %#x and %d B, want %#x and %d B as sent", i, typ, len(p), TypeState, len(w))
		}
	}
}

// TestReadFrameByteAtATime: a connection that yields one byte per read
// still delivers every frame whole, small and larger than the buffer,
// and ends with io.EOF between frames.
func TestReadFrameByteAtATime(t *testing.T) {
	var script [][]byte
	var want [][]byte
	for i, n := range []int{0, 1, 37, minRead - 5, minRead, 3 * minRead, 2} {
		want = append(want, payloadOf(n, byte(i)))
		script = append(script, frameBytes(TypeState, want[i]))
	}
	c := NewConn(&chunkConn{chunks: script, per: 1})
	readFrames(t, c, want)
	if _, _, err := c.ReadFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameTruncated: a connection that ends inside a frame, in its
// length prefix or in its payload, fails with io.ErrUnexpectedEOF.
func TestReadFrameTruncated(t *testing.T) {
	f := frameBytes(TypeState, payloadOf(100, 0))
	for _, cut := range []int{2, 4, 5, 50} {
		c := NewConn(&chunkConn{chunks: [][]byte{f[:cut]}})
		if _, _, err := c.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut after %d B: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameKeepsFollowingFrames: two frames that arrive in one read
// are both returned, the second without another read, and a frame that
// fits the buffer costs one read.
func TestReadFrameKeepsFollowingFrames(t *testing.T) {
	a, b := payloadOf(300, 1), payloadOf(200, 2)
	cc := &chunkConn{chunks: [][]byte{append(frameBytes(TypeState, a), frameBytes(TypeState, b)...)}}
	c := NewConn(cc)
	typ, p, err := c.ReadFrame()
	if err != nil || typ != TypeState || !bytes.Equal(p, a) {
		t.Fatalf("first frame: %v", err)
	}
	if cc.reads != 1 {
		t.Fatalf("the first frame took %d reads, want 1", cc.reads)
	}
	readFrames(t, c, [][]byte{b})
	if cc.reads != 1 {
		t.Fatalf("the second frame took %d more reads, want 0: its bytes came with the first", cc.reads-1)
	}
	// A later frame that fits is one read too.
	cc.chunks = [][]byte{frameBytes(TypeState, a)}
	readFrames(t, c, [][]byte{a})
	if cc.reads != 2 {
		t.Fatalf("a frame that fits took %d reads, want 1", cc.reads-1)
	}
}

// TestReadFrameGrowsToLargestFrame: a frame larger than any before it
// grows the buffer to that frame, keeping the bytes that came with it,
// and the buffer stays at the largest frame read.
func TestReadFrameGrowsToLargestFrame(t *testing.T) {
	small, big := payloadOf(100, 3), payloadOf(5*minRead, 4)
	bigFrame := frameBytes(TypeState, big)
	// The big frame's first bytes arrive with the small frame before it.
	first := append(frameBytes(TypeState, small), bigFrame[:minRead/2]...)
	cc := &chunkConn{chunks: [][]byte{first, bigFrame[minRead/2:], frameBytes(TypeState, small)}}
	c := NewConn(cc)
	readFrames(t, c, [][]byte{small, big, small})
	if got := len(c.rbuf); got != len(bigFrame) {
		t.Fatalf("read buffer %d B after a %d B frame, want %d B", got, len(bigFrame), len(bigFrame))
	}
}
