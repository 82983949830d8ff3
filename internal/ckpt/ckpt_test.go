package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func roundTrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(payload) + 4); w.N() != want {
		t.Fatalf("N = %d, want %d", w.N(), want)
	}
	return buf.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	payload := []byte("MAGIC1 body bytes of an artifact")
	full := roundTrip(t, payload)
	r := NewReader(bytes.NewReader(full))
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled")
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("valid footer rejected: %v", err)
	}
}

func TestFoldCoversPreConsumedMagic(t *testing.T) {
	payload := []byte("MAGIC2 rest of the body")
	full := roundTrip(t, payload)
	// A loader reads the magic raw to dispatch on it, then wraps the rest.
	raw := bytes.NewReader(full)
	magic := make([]byte, 6)
	if _, err := io.ReadFull(raw, magic); err != nil {
		t.Fatal(err)
	}
	r := NewReader(raw)
	r.fold(magic)
	if _, err := io.Copy(io.Discard, io.LimitReader(r, int64(len(payload)-6))); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("fold path rejected a valid artifact: %v", err)
	}
}

func TestVerifyFooterDetectsEveryFlippedByte(t *testing.T) {
	payload := []byte("body under test")
	full := roundTrip(t, payload)
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x04
		r := NewReader(bytes.NewReader(mut))
		if _, err := io.CopyN(io.Discard, r, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flipped byte %d: err = %v, want ErrChecksum", i, err)
		}
	}
}

func TestVerifyFooterShortRead(t *testing.T) {
	full := roundTrip(t, []byte("body"))
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	if _, err := io.CopyN(io.Discard, r, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("truncated footer: err = %v, want ErrChecksum", err)
	}
}

// TestNestedWriters locks the nesting contract: an outer writer hashes
// the inner artifact's footer bytes, because they pass through its Write.
func TestNestedWriters(t *testing.T) {
	var buf bytes.Buffer
	outer := NewWriter(&buf)
	if _, err := outer.Write([]byte("OUTER hdr")); err != nil {
		t.Fatal(err)
	}
	inner := NewWriter(outer)
	if _, err := inner.Write([]byte("inner body")); err != nil {
		t.Fatal(err)
	}
	if err := inner.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	if err := outer.WriteFooter(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Verify the outer footer over everything before it.
	r := NewReader(bytes.NewReader(full))
	if _, err := io.CopyN(io.Discard, r, int64(len(full)-4)); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("outer footer: %v", err)
	}
	// Flipping a byte inside the inner footer must break the outer hash.
	mut := append([]byte(nil), full...)
	mut[len(mut)-6] ^= 0x01 // inside the inner footer region
	r = NewReader(bytes.NewReader(mut))
	if _, err := io.CopyN(io.Discard, r, int64(len(mut)-4)); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyFooter(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("outer footer missed inner-footer corruption: %v", err)
	}
}

// TestCreateOpenRoundTrip drives one artifact through every framing
// helper: magic, each primitive, footer.
func TestCreateOpenRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := Create(&buf, "TEST1")
	if err != nil {
		t.Fatal(err)
	}
	if err := PutU32(w, 7, 1<<31); err != nil {
		t.Fatal(err)
	}
	if err := PutU64(w, 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := PutF64(w, 0.5, -3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFooter(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(bytes.NewReader(buf.Bytes()), "TEST1")
	if err != nil {
		t.Fatal(err)
	}
	var a, b uint32
	if err := GetU32s(r, &a, &b); err != nil || a != 7 || b != 1<<31 {
		t.Fatalf("u32s = %d, %d, %v", a, b, err)
	}
	if v, err := GetU64(r); err != nil || v != 1<<40 {
		t.Fatalf("u64 = %d, %v", v, err)
	}
	if v, err := GetF64(r); err != nil || v != 0.5 {
		t.Fatalf("f64 = %v, %v", v, err)
	}
	f := make([]float64, 1)
	if err := GetF64s(r, f); err != nil || f[0] != -3 {
		t.Fatalf("f64s = %v, %v", f, err)
	}
	if err := r.VerifyFooter(); err != nil {
		t.Fatalf("footer over the magic rejected: %v", err)
	}
}

// TestOpenRejects: another magic fails as ErrBadFormat itself, a short
// header as an error matching it.
func TestOpenRejects(t *testing.T) {
	if _, err := Open(bytes.NewReader([]byte("TEST0 rest")), "TEST1"); err != ErrBadFormat {
		t.Fatalf("other magic: err = %v, want ErrBadFormat", err)
	}
	if _, err := Open(bytes.NewReader([]byte("TES")), "TEST1"); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short header: err = %v, want ErrBadFormat", err)
	}
}

func TestCorrupt(t *testing.T) {
	if Corrupt("x", nil) != nil {
		t.Fatal("Corrupt(nil) != nil")
	}
	err := Corrupt("x", io.ErrUnexpectedEOF)
	if !errors.Is(err, ErrBadFormat) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v lost a cause", err)
	}
	if again := Corrupt("y", err); again != err {
		t.Fatalf("re-wrapped an ErrBadFormat error: %v", again)
	}
}

// TestWriteFileAtomic: a successful save lands at path; a failed save
// leaves neither a target nor a temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "body")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "body" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("boom")
	bad := filepath.Join(dir, "b.ckpt")
	if err := WriteFileAtomic(bad, func(io.Writer) error { return boom }); err != boom {
		t.Fatalf("err = %v, want the save error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("dir holds %d entries after a failed save, want 1", len(entries))
	}
}

// TestGetF64sChunked: GetF64s decodes runs shorter than, equal to and
// longer than its staging chunk exactly as PutF64 wrote them, fails a
// stream that ends early as one io.ReadFull over the whole run would
// (io.EOF before the first byte, io.ErrUnexpectedEOF after, chunk
// boundaries included), and commits one chunk, not the run, per call.
func TestGetF64sChunked(t *testing.T) {
	for _, n := range []int{0, 1, f64Chunk - 1, f64Chunk, f64Chunk + 1, 3*f64Chunk + 7} {
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i)*1.5 - 7
		}
		var buf bytes.Buffer
		if err := PutF64(&buf, want...); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		got := make([]float64, n)
		if err := GetF64s(bytes.NewReader(raw), got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, got[i], want[i])
			}
		}
		for _, cut := range []int{0, 3, 8 * f64Chunk, len(raw) - 1} {
			if cut < 0 || cut >= len(raw) {
				continue
			}
			wantErr := io.ErrUnexpectedEOF
			if cut == 0 {
				wantErr = io.EOF
			}
			if err := GetF64s(bytes.NewReader(raw[:cut]), got); err != wantErr {
				t.Fatalf("n=%d cut at %d: err %v, want %v", n, cut, err, wantErr)
			}
		}
	}
	big := make([]float64, 64*f64Chunk)
	var buf bytes.Buffer
	if err := PutF64(&buf, big...); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(buf.Bytes())
		if err := GetF64s(r, big); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("GetF64s of %d doubles made %v allocations, want at most the one chunk", len(big), allocs)
	}
}
