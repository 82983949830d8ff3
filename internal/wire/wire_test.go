package wire

import (
	"bytes"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"

	"edgedrift/internal/core"
)

func TestBatchRoundTrip(t *testing.T) {
	xs := [][]float64{
		{1.5, -2.25, math.Inf(1)},
		{0, math.NaN(), 3.75},
	}
	p, err := AppendBatch(nil, "sensor-7", xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stream != "sensor-7" || b.Dims != 3 || b.Count != 2 {
		t.Fatalf("header = %q %dx%d", b.Stream, b.Count, b.Dims)
	}
	got := b.Decode(nil)
	for i := range xs {
		for j := range xs[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(xs[i][j]) {
				t.Fatalf("sample %d[%d]: %v != %v (bit-exact)", i, j, got[i][j], xs[i][j])
			}
		}
	}
}

// batchPayload encodes a count×dims batch whose sample i holds
// base+i·dims+j at position j.
func batchPayload(t *testing.T, count, dims int, base float64) []byte {
	t.Helper()
	xs := make([][]float64, count)
	for i := range xs {
		xs[i] = make([]float64, dims)
		for j := range xs[i] {
			xs[i][j] = base + float64(i*dims+j)
		}
	}
	p, err := AppendBatch(nil, "sensor-7", xs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func requireDecoded(t *testing.T, got [][]float64, count, dims int, base float64) {
	t.Helper()
	if len(got) != count {
		t.Fatalf("decoded %d rows, want %d", len(got), count)
	}
	for i, row := range got {
		if len(row) != dims {
			t.Fatalf("row %d has %d values, want %d", i, len(row), dims)
		}
		for j, v := range row {
			if v != base+float64(i*dims+j) {
				t.Fatalf("row %d[%d] = %v, want %v", i, j, v, base+float64(i*dims+j))
			}
		}
	}
}

// TestDecodeReusesRows pins Decode's buffer contract: Decode(nil) makes
// the slab and the row headers (ParseBatch adds the stream name), a
// decode into the previous result makes nothing, and rows that are too
// short, or headers past cap(dst), are replaced without disturbing the
// rows that fit.
func TestDecodeReusesRows(t *testing.T) {
	p8 := batchPayload(t, 8, 38, 0)
	b8, err := ParseBatch(p8)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		b, _ := ParseBatch(p8)
		b.Decode(nil)
	}); allocs != 3 {
		t.Errorf("ParseBatch+Decode(nil): %v allocs, want 3 (stream name, row headers, slab)", allocs)
	}
	dst := b8.Decode(nil)
	requireDecoded(t, dst, 8, 38, 0)
	p8b := batchPayload(t, 8, 38, 1000)
	b8b, _ := ParseBatch(p8b)
	if allocs := testing.AllocsPerRun(50, func() { dst = b8b.Decode(dst[:0]) }); allocs != 0 {
		t.Errorf("Decode into the previous rows: %v allocs, want 0", allocs)
	}
	requireDecoded(t, dst, 8, 38, 1000)

	// Fewer, narrower samples reuse the first rows; the rest keep their
	// storage for the next full batch.
	b3, _ := ParseBatch(batchPayload(t, 3, 20, 5000))
	first := &dst[0][0]
	dst = b3.Decode(dst[:0])
	requireDecoded(t, dst, 3, 20, 5000)
	if &dst[0][0] != first {
		t.Error("a narrower batch did not reuse the first row")
	}
	dst = b8b.Decode(dst[:0])
	requireDecoded(t, dst, 8, 38, 1000)

	// Wider and longer: every row is replaced and the headers grow.
	b12, _ := ParseBatch(batchPayload(t, 12, 40, 7000))
	dst = b12.Decode(dst[:0])
	requireDecoded(t, dst, 12, 40, 7000)

	// The decoded samples are copies: overwriting the frame leaves them.
	dst = b8.Decode(nil)
	requireDecoded(t, dst, 8, 38, 0)
	clear(p8)
	requireDecoded(t, dst, 8, 38, 0)
}

// TestFrameRoundTripZeroAlloc pins that moving a frame over a
// connection allocates nothing once the read buffer has grown: the
// frame headers live in the Conn. It covers an 8-sample batch, laid out
// in the Conn's write buffer, and a 256-sample one (~78 kB, the
// loadgen's default batch), sent as header and payload.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	a, b := NewConn(nc), NewConn(peer)
	defer a.Close()
	defer b.Close()
	for _, count := range []int{8, 256} {
		payload := batchPayload(t, count, 38, 0)
		if big := 5+len(payload) > maxKeptWrite; big != (count == 256) {
			t.Fatalf("%d-sample frame of %d B: larger than maxKeptWrite = %v", count, 5+len(payload), big)
		}
		// One slot, so the reader's last send never waits on a test
		// that has already failed.
		got := make(chan error, 1)
		go func() {
			for {
				typ, p, err := b.ReadFrame()
				if err == nil && (typ != TypeBatch || !bytes.Equal(p, payload)) {
					err = errors.New("frame changed in transit")
				}
				got <- err
				if err != nil {
					return
				}
			}
		}()
		var rerr error
		roundTrip := func() {
			if err := a.WriteFrame(TypeBatch, payload); err != nil {
				rerr = err
				return
			}
			if err := <-got; err != nil {
				rerr = err
			}
		}
		roundTrip()
		allocs := testing.AllocsPerRun(100, roundTrip)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if allocs != 0 {
			t.Errorf("%d-sample batch: WriteFrame+ReadFrame: %v allocs per frame, want 0", count, allocs)
		}
		// Stop the reader: a frame it does not expect ends its loop.
		if err := a.WriteFrame(TypeError, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err == nil {
			t.Fatal("reader accepted an unexpected frame")
		}
	}
}

// countingConn counts the Write calls that reach a net.Conn.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestWriteFrameWrites: a frame of at most maxKeptWrite bytes reaches
// the connection as one Write and a larger one as two (header, then
// payload), and the buffer a Conn keeps never grows past maxKeptWrite.
func TestWriteFrameWrites(t *testing.T) {
	near, far := net.Pipe()
	cc := &countingConn{Conn: near}
	a, b := NewConn(cc), NewConn(far)
	defer a.Close()
	defer b.Close()
	for _, n := range []int{0, 1, 2431, maxKeptWrite - 6, maxKeptWrite - 5, maxKeptWrite - 4, 64 << 10, 1 << 20} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		done := make(chan error, 1)
		go func() {
			typ, p, err := b.ReadFrame()
			if err == nil && (typ != TypeState || !bytes.Equal(p, payload)) {
				err = errors.New("frame changed in transit")
			}
			done <- err
		}()
		cc.writes = 0
		if err := a.WriteFrame(TypeState, payload); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%d B payload: %v", n, err)
		}
		want := 1
		if 5+n > maxKeptWrite {
			want = 2
		}
		if cc.writes != want {
			t.Fatalf("%d B payload: %d Writes, want %d", n, cc.writes, want)
		}
		if cap(a.wbuf) > maxKeptWrite {
			t.Fatalf("after a %d B payload the Conn keeps a %d B write buffer, want at most %d B", n, cap(a.wbuf), maxKeptWrite)
		}
	}
}

func TestBatchRejects(t *testing.T) {
	if _, err := AppendBatch(nil, "", [][]float64{{1}}); err == nil {
		t.Fatal("empty stream name accepted")
	}
	if _, err := AppendBatch(nil, "s", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := AppendBatch(nil, "s", [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	p, _ := AppendBatch(nil, "s", [][]float64{{1, 2}})
	if _, err := ParseBatch(p[:len(p)-1]); err == nil {
		t.Fatal("truncated batch parsed")
	}
}

func TestResultsRoundTripBitExact(t *testing.T) {
	rs := []core.Result{
		{Label: 3, Score: 0.123456789, Phase: core.Checking, Dist: 1.5},
		{Label: -1, Score: math.Inf(1), Phase: core.Reconstructing, DriftDetected: true, Dist: 42.000000001},
		{Label: 0, Score: 0, Phase: core.Monitoring, Rejected: true},
	}
	p := AppendResults(nil, "s", rs)
	stream, got, err := ParseResults(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stream != "s" {
		t.Fatalf("stream = %q", stream)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("results round trip:\n got %+v\nwant %+v", got, rs)
	}
}

func TestStateRoundTrip(t *testing.T) {
	st := State{Stream: "mig", Kind: 1, Samples: 1 << 40, Drifts: 7, Payload: []byte{1, 2, 3}}
	got, err := ParseState(AppendState(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("state round trip: %+v != %+v", got, st)
	}
}

func TestShedAndStatsRoundTrip(t *testing.T) {
	stream, n, err := ParseShed(AppendShed(nil, "s", 640))
	if err != nil || stream != "s" || n != 640 {
		t.Fatalf("shed round trip: %q %d %v", stream, n, err)
	}
	s := Stats{Streams: 3, Samples: 1000, Drifts: 5, Batches: 40, ShedSamples: 64,
		ShedBatches: 1, MigratedIn: 2, MigratedOut: 1, QueueDepth: 9,
		Degraded: 2, Demotions: 4, Promotions: 2, TransitionFailures: 1,
		IngestP99Ns: 1_048_575}
	got, err := ParseStats(AppendStats(nil, s))
	if err != nil || got != s {
		t.Fatalf("stats round trip: %+v %v", got, err)
	}
	// A payload from a pre-transition peer (or any torn length) is
	// rejected, not misparsed.
	short := AppendStats(nil, s)[:4+7*8+4]
	if _, err := ParseStats(short); err == nil {
		t.Fatal("legacy-length stats payload parsed")
	}
}

// TestFramedExchange runs the handshake and a batch request/reply over
// a real TCP socket pair.
func TestFramedExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		sc := NewConn(nc)
		if err := sc.AcceptHandshake(); err != nil {
			serverErr <- err
			return
		}
		typ, p, err := sc.ReadFrame()
		if err != nil || typ != TypeBatch {
			serverErr <- err
			return
		}
		b, err := ParseBatch(p)
		if err != nil {
			serverErr <- err
			return
		}
		rs := make([]core.Result, b.Count)
		for i := range rs {
			rs[i] = core.Result{Label: i, Score: float64(i), Phase: core.Monitoring}
		}
		serverErr <- sc.WriteFrame(TypeBatchAck, AppendResults(nil, b.Stream, rs))
	}()

	cl, err := DialClient(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rs, shed, err := cl.SendBatch(nil, "s", [][]float64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 || len(rs) != 3 || rs[2].Label != 2 {
		t.Fatalf("reply = shed %d, %+v", shed, rs)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeRejectsGarbage: a non-protocol peer must fail the
// handshake, not hang or crash the server loop.
func TestHandshakeRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		done <- NewConn(nc).AcceptHandshake()
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewConn(nc)
	if err := c.WriteFrame(TypeHello, []byte("BOGUS")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Fatalf("server accepted garbage hello: %v", err)
	}
}

func TestFrameLengthBounds(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	_, _, err := NewConn(b).ReadFrame()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("implausible frame length accepted: %v", err)
	}
}

func TestMergeStatesRoundTrip(t *testing.T) {
	ms := MergeStates{
		Stream:      "fan-3",
		Fingerprint: 0xdeadbeefcafe,
		States:      [][]byte{{1, 2, 3}, {}, {4}},
	}
	got, err := ParseMergeStates(AppendMergeStates(nil, ms))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != ms.Stream || got.Fingerprint != ms.Fingerprint || len(got.States) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range ms.States {
		if !bytes.Equal(got.States[i], ms.States[i]) {
			t.Fatalf("state %d round-tripped to %v", i, got.States[i])
		}
	}
}

func TestMergeStatesRejects(t *testing.T) {
	good := AppendMergeStates(nil, MergeStates{Stream: "s", Fingerprint: 1,
		States: [][]byte{{9, 9}, {8}}})
	// Zero states is not a valid frame in either direction.
	if _, err := ParseMergeStates(AppendMergeStates(nil, MergeStates{Stream: "s"})); err == nil {
		t.Fatal("zero-state payload accepted")
	}
	// Any truncation must be rejected.
	for n := 0; n < len(good); n++ {
		if _, err := ParseMergeStates(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := ParseMergeStates(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A state length pointing past the payload must be rejected.
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] = 0xff // first byte of the last state's u32 length
	if _, err := ParseMergeStates(bad); err == nil {
		t.Fatal("oversized state length accepted")
	}
}
