package wire

import (
	"bytes"
	"errors"
	"testing"

	"edgedrift/internal/core"
)

// FuzzParseFrame feeds arbitrary frames — a type byte and a payload — to
// every network decoder: the payload is untrusted input from a socket,
// so each decoder must return a typed ErrProtocol error or a value,
// never panic. Decoders whose encoding is canonical must also re-encode
// what they accept to the same bytes. The corpus seeds one valid frame
// of each type.
func FuzzParseFrame(f *testing.F) {
	batch, err := AppendBatch(nil, "s1", [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	hello := append(helloMagic[:4:4], Version)
	for _, seed := range [][]byte{
		append([]byte{TypeHello}, hello...),
		append([]byte{TypeHelloAck}, hello...),
		append([]byte{TypeBatch}, batch...),
		append([]byte{TypeBatchAck}, AppendResults(nil, "s1", []core.Result{
			{Label: 1, Score: 0.5, Phase: core.Checking, Dist: 2, DriftDetected: true},
		})...),
		append([]byte{TypeShed}, AppendShed(nil, "s1", 8)...),
		append([]byte{TypeState}, AppendState(nil, State{Stream: "s1", Kind: 1, Samples: 9, Drifts: 1, Payload: []byte{7, 7}})...),
		append([]byte{TypeMergeState}, AppendMergeStates(nil, MergeStates{Stream: "s1", Fingerprint: 3, States: [][]byte{{1}, {2, 3}}})...),
		append([]byte{TypeStatsReply}, AppendStats(nil, Stats{Streams: 2, Samples: 16, IngestP99Ns: 1000})...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		parseFrame(t, frame[0], frame[1:])
	})
}

// parseFrame runs every decoder over p. A server picks one by the type
// byte; running them all means a mutated type byte cannot hide a
// payload from any decoder.
func parseFrame(t *testing.T, typ byte, p []byte) {
	check := func(name string, err error) bool {
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s (frame type %#x): untyped error %v", name, typ, err)
		}
		return err == nil
	}
	canonical := func(name string, got []byte) {
		if !bytes.Equal(got, p) {
			t.Fatalf("%s: accepted payload re-encodes differently:\n got %x\nwant %x", name, got, p)
		}
	}

	check("hello", parseHello(p))
	if b, err := ParseBatch(p); check("ParseBatch", err) {
		xs := b.Decode(nil)
		if len(xs) != b.Count {
			t.Fatalf("Decode: %d rows, header says %d", len(xs), b.Count)
		}
		if b.Stream != "" { // the only batch ParseBatch takes and AppendBatch refuses
			re, err := AppendBatch(nil, b.Stream, xs)
			if err != nil {
				t.Fatalf("AppendBatch rejects a parsed batch: %v", err)
			}
			canonical("ParseBatch", re)
		}
	}
	if stream, rs, err := ParseResults(p, nil); check("ParseResults", err) {
		if want := (len(p) - 2 - len(stream) - 4) / resultBytes; len(rs) != want {
			t.Fatalf("ParseResults: %d results from %d bytes", len(rs), len(p))
		}
	}
	if stream, n, err := ParseShed(p); check("ParseShed", err) {
		canonical("ParseShed", AppendShed(nil, stream, n))
	}
	if st, err := ParseState(p); check("ParseState", err) {
		canonical("ParseState", AppendState(nil, st))
	}
	if ms, err := ParseMergeStates(p); check("ParseMergeStates", err) {
		canonical("ParseMergeStates", AppendMergeStates(nil, ms))
	}
	if s, err := ParseStats(p); check("ParseStats", err) {
		canonical("ParseStats", AppendStats(nil, s))
	}
}
