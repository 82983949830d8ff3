// Package ckpt owns the framing every checkpoint format in the
// repository shares (oselm, model, core, fixed, pool, fleet). Each
// artifact starts with a magic naming its one live version, continues
// with little-endian fields written by the primitives below, and ends
// with a 4-byte little-endian CRC32 (IEEE) footer covering every byte
// from the magic onward, so a truncated or bit-flipped artifact shipped
// to a device fails loudly at load time instead of running with corrupt
// weights. Every load failure matches the one ErrBadFormat.
//
// The writer and reader nest: when an outer format (the multi-instance
// model) streams an inner artifact (an OS-ELM instance) through its own
// hashing writer, the inner artifact's bytes — footer included — are
// covered by the outer checksum too.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// ErrBadFormat reports a stream that is not an artifact of a live
// checkpoint version, or one that is truncated or corrupt. Every loader
// in the repository fails with an error matching it.
var ErrBadFormat = errors.New("ckpt: not a checkpoint artifact of a live version (or corrupt)")

// ErrChecksum reports an artifact whose CRC32 footer does not match its
// content: the artifact was truncated, bit-flipped, or otherwise
// corrupted between save and load.
var ErrChecksum = errors.New("ckpt: artifact checksum mismatch")

// Corrupt wraps a load failure of package pkg so it matches both
// ErrBadFormat and the underlying cause (ErrChecksum included). A nil
// error, or one that already matches ErrBadFormat, is returned as is.
func Corrupt(pkg string, err error) error {
	if err == nil || errors.Is(err, ErrBadFormat) {
		return err
	}
	return fmt.Errorf("%s: corrupt artifact: %w: %w", pkg, ErrBadFormat, err)
}

// Writer hashes everything written through it and can append the CRC32
// footer. It also counts bytes.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

// NewWriter wraps w in a hashing, byte-counting writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.NewIEEE()}
}

// Create starts an artifact: it wraps w in a Writer and writes magic
// through it, so the footer covers the magic.
func Create(w io.Writer, magic string) (*Writer, error) {
	cw := NewWriter(w)
	_, err := io.WriteString(cw, magic)
	return cw, err
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	w.n += int64(n)
	return n, err
}

// N returns the number of bytes written through the writer, footer
// included once WriteFooter has run.
func (w *Writer) N() int64 { return w.n }

// WriteFooter appends the little-endian CRC32 of everything written so
// far. The footer bytes themselves are excluded from the writer's own
// hash (but an enclosing Writer hashes them normally, since they pass
// through its Write).
func (w *Writer) WriteFooter() error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w.crc.Sum32())
	n, err := w.w.Write(b[:])
	w.n += int64(n)
	return err
}

// Reader hashes everything read through it and can verify the CRC32
// footer against what was read.
type Reader struct {
	r   io.Reader
	crc hash.Hash32
}

// NewReader wraps r in a hashing reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, crc: crc32.NewIEEE()}
}

// Open reads an artifact's magic from r and checks that it is magic,
// the live version. The returned Reader's checksum already covers the
// magic. Any other magic fails as ErrBadFormat itself; a short read
// fails with an error matching it.
func Open(r io.Reader, magic string) (*Reader, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("%w: %s header: %w", ErrBadFormat, magic, err)
	}
	if string(got) != magic {
		return nil, ErrBadFormat
	}
	cr := NewReader(r)
	cr.fold(got)
	return cr, nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc.Write(p[:n])
	return n, err
}

// fold hashes bytes the caller already consumed from the underlying
// stream before wrapping it, such as a magic read raw.
func (r *Reader) fold(p []byte) { r.crc.Write(p) }

// VerifyFooter reads the 4-byte footer from the underlying stream
// (deliberately not folding it into this reader's own hash) and compares
// it with the hash of everything read so far. A short read or a mismatch
// returns an error wrapping ErrChecksum.
func (r *Reader) VerifyFooter() error {
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrChecksum, err)
	}
	want := binary.LittleEndian.Uint32(b[:])
	if got := r.crc.Sum32(); got != want {
		return fmt.Errorf("%w: computed %08x, footer says %08x", ErrChecksum, got, want)
	}
	return nil
}

// PutU32 writes vs as consecutive little-endian 32-bit words.
func PutU32(w io.Writer, vs ...uint32) error {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	_, err := w.Write(b)
	return err
}

// GetU32 reads one little-endian 32-bit word.
func GetU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// GetU32s reads one little-endian 32-bit word into each of vs in turn.
func GetU32s(r io.Reader, vs ...*uint32) error {
	for _, v := range vs {
		var err error
		if *v, err = GetU32(r); err != nil {
			return err
		}
	}
	return nil
}

// PutU64 writes v as a little-endian 64-bit word.
func PutU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// GetU64 reads one little-endian 64-bit word.
func GetU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// PutF64 writes vs as consecutive little-endian IEEE-754 doubles.
func PutF64(w io.Writer, vs ...float64) error {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(b)
	return err
}

// GetF64 reads one little-endian IEEE-754 double.
func GetF64(r io.Reader) (float64, error) {
	v, err := GetU64(r)
	return math.Float64frombits(v), err
}

// f64Chunk is how many doubles GetF64s stages per read.
const f64Chunk = 64

// GetF64s fills dst with consecutive little-endian IEEE-754 doubles,
// staging them through one fixed-size chunk rather than a buffer the
// size of dst, so it commits no memory beyond dst itself. As with one
// io.ReadFull over the whole run, a stream that ends before the first
// byte fails with io.EOF and one that ends later with
// io.ErrUnexpectedEOF.
func GetF64s(r io.Reader, dst []float64) error {
	var b [8 * f64Chunk]byte
	for first := true; len(dst) > 0; first = false {
		n := min(len(dst), f64Chunk)
		if _, err := io.ReadFull(r, b[:8*n]); err != nil {
			if err == io.EOF && !first {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[n:]
	}
	return nil
}

// WriteFileAtomic writes an artifact to path crash-safely: save writes
// into a temporary file in the same directory, which is flushed to
// stable storage and only then renamed over path. A crash or power loss
// midway leaves either the old artifact or the new one, never a torn
// file that would fail its checksum on the next boot. An error from
// save is returned as is.
func WriteFileAtomic(path string, save func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := save(tmp); err != nil {
		tmp.Close()
		return err
	}
	err = tmp.Sync()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("ckpt: save %s: %w", path, err)
	}
	return nil
}
