package oselm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/mat"
)

// Precision identifies a numeric backend: the element width model
// state is stored and — since the precision refactor — computed at.
// It doubles as the on-wire float width for saved models.
type Precision byte

const (
	// Float64 is the full-precision backend (and exact round-trip wire
	// format), the historical default.
	Float64 Precision = 0
	// Float32 halves weight memory and artifact size for 32-bit edge
	// deployment at the cost of ~7 decimal digits; the paper's Pico port
	// stores its weights this way. As a compute precision it applies to
	// the inference-side state only — RLS training keeps P at float64.
	Float32 Precision = 1
	// Fixed16 is the Q16.16 fixed-point backend (internal/fixed) for
	// FPU-less targets. It is inference-only: models are built by
	// quantising a trained float model, never trained at this width, and
	// it is not a wire format.
	Fixed16 Precision = 2
)

// Bytes returns the element width in bytes.
func (p Precision) Bytes() int {
	if p == Float64 {
		return 8
	}
	return 4 // Float32 and Fixed16 are both 32-bit words
}

// String implements fmt.Stringer with the spellings the driftbench
// -precision flag accepts.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	case Fixed16:
		return "q16"
	default:
		return fmt.Sprintf("Precision(%d)", byte(p))
	}
}

// ParsePrecision maps the driftbench flag spellings back to a
// Precision, listing the valid set in the error so callers can surface
// it verbatim as a usage message.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	case "q16", "fixed16":
		return Fixed16, nil
	}
	return 0, fmt.Errorf("unknown precision %q (valid: f64, f32, q16)", s)
}

// magic identifies a serialised OS-ELM model (OSELM3): the wire- and
// compute-precision bytes, the shape and RLS constants, the weight
// slabs, then a CRC32 footer (see internal/ckpt). The compute-precision
// byte makes a reduced-precision model round-trip as one.
const magic = "OSELM3"

// Sanity bounds on deserialised dimensions: large enough for any model
// this library can usefully run. They bound what a header may claim,
// not what a load allocates: slabs grow only as their bytes arrive (see
// readSlab), so a bit-flipped header cannot demand an absurd allocation
// before the checksum is checked.
const (
	maxLoadDim         = 1 << 16
	maxLoadMatrixElems = 1 << 26
)

// loadChunk is the element count a slab read commits up front; larger
// slabs double from there as their bytes arrive.
const loadChunk = 1 << 14

func writeFloats(w io.Writer, prec Precision, xs []float64) error {
	if prec == Float64 {
		return ckpt.PutF64(w, xs...)
	}
	buf := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, prec Precision, dst []float64) error {
	if prec == Float64 {
		return ckpt.GetF64s(r, dst)
	}
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	return nil
}

// Save serialises the model (random projection, learned state and
// configuration) to w as an OSELM3 artifact: the payload followed by a
// CRC32 footer. prec selects the on-wire element width; the model's
// compute precision is carried separately so a float32 model reloads as
// one. It returns the number of bytes written.
func (m *Model) Save(w io.Writer, prec Precision) (int64, error) {
	if prec != Float64 && prec != Float32 {
		return 0, fmt.Errorf("oselm: %v is not a wire precision (valid: f64, f32)", prec)
	}
	cw, err := ckpt.Create(w, magic)
	if err == nil {
		_, err = cw.Write([]byte{byte(prec), byte(m.cfg.Precision)})
	}
	if err == nil {
		err = ckpt.PutU32(cw, uint32(m.cfg.Inputs), uint32(m.cfg.Hidden), uint32(m.cfg.Outputs),
			uint32(m.cfg.Activation), uint32(m.inits))
	}
	if err == nil {
		err = ckpt.PutF64(cw, m.cfg.Forgetting, m.cfg.Ridge, m.cfg.WeightScale)
	}
	for _, xs := range m.exportSlabs() {
		if err == nil {
			err = writeFloats(cw, prec, xs)
		}
	}
	if err == nil {
		err = cw.WriteFooter()
	}
	return cw.N(), err
}

// exportSlabs returns the persistent state in serialisation order
// (W, bias, β, P) as dense float64 slices. The float64 backend returns
// live views of dense slabs and copies of padded ones; the float32
// backend materialises converted copies — Save is an export path, not a
// hot loop.
func (m *Model) exportSlabs() [][]float64 {
	if m.w32 == nil {
		return [][]float64{dense(m.w), m.bias, dense(m.beta), m.p.Data}
	}
	w := make([]float64, len(m.w32.Data))
	bias := make([]float64, len(m.bias32))
	beta := make([]float64, len(m.beta32.Data))
	mat.ConvertVec(w, m.w32.Data)
	mat.ConvertVec(bias, m.bias32)
	mat.ConvertVec(beta, m.beta32.Data)
	return [][]float64{w, bias, beta, m.p.Data}
}

// Load deserialises an OSELM3 model written by Save. The returned model
// is ready to predict and to continue sequential training. Every failure
// (unknown magic, truncation, checksum mismatch, implausible header)
// matches ckpt.ErrBadFormat.
func Load(r io.Reader) (*Model, error) {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return nil, err
	}
	m, err := loadBody(cr)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return nil, ckpt.Corrupt("oselm", err)
	}
	return m, nil
}

// loadBody parses the payload that follows the magic.
func loadBody(r io.Reader) (*Model, error) {
	var precs [2]byte
	if _, err := io.ReadFull(r, precs[:]); err != nil {
		return nil, err
	}
	prec, compute := Precision(precs[0]), Precision(precs[1])
	if prec > Float32 || compute > Float32 {
		return nil, ckpt.ErrBadFormat
	}
	var u [5]uint32
	if err := ckpt.GetU32s(r, &u[0], &u[1], &u[2], &u[3], &u[4]); err != nil {
		return nil, err
	}
	var f [3]float64
	if err := ckpt.GetF64s(r, f[:]); err != nil {
		return nil, err
	}
	cfg := Config{
		Inputs:      int(u[0]),
		Hidden:      int(u[1]),
		Outputs:     int(u[2]),
		Activation:  Activation(u[3]),
		Forgetting:  f[0],
		Ridge:       f[1],
		WeightScale: f[2],
		Precision:   compute,
	}
	if err := checkLoadDims(cfg); err != nil {
		return nil, err
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("oselm: load config: %w", err)
	}
	var slabs [4][]float64 // W, b, β, P
	for i, n := range [...]int{c.Hidden * c.Inputs, c.Hidden, c.Hidden * c.Outputs, c.Hidden * c.Hidden} {
		if slabs[i], err = readSlab(r, prec, n); err != nil {
			return nil, fmt.Errorf("oselm: load weights: %w", err)
		}
	}
	m := build(c, slabs[0], slabs[1], slabs[2], slabs[3])
	if m.w32 != nil {
		// Float32 backend: narrow the staged slabs into the owned float32
		// state. P stays float64.
		mat.ConvertVec(m.w32.Data, slabs[0])
		mat.ConvertVec(m.bias32, slabs[1])
		mat.ConvertVec(m.beta32.Data, slabs[2])
	}
	m.inits = int(u[4])
	return m, nil
}

// readSlab reads an n-element slab, committing memory only as its bytes
// arrive: the first loadChunk elements, then doubling. A header can
// claim up to maxLoadMatrixElems elements per slab, and a stream that
// does not carry them fails having allocated about twice what it did
// carry, not what it claimed. The returned slice has length and
// capacity n.
func readSlab(r io.Reader, prec Precision, n int) ([]float64, error) {
	xs := make([]float64, min(n, loadChunk))
	if err := readFloats(r, prec, xs); err != nil {
		return nil, err
	}
	for len(xs) < n {
		grown := make([]float64, min(n, 2*len(xs)))
		copy(grown, xs)
		if err := readFloats(r, prec, grown[len(xs):]); err != nil {
			return nil, err
		}
		xs = grown
	}
	return xs, nil
}

// checkLoadDims rejects deserialised dimensions no valid artifact can
// carry, so a corrupt header fails as ErrBadFormat instead of demanding
// a multi-gigabyte allocation.
func checkLoadDims(c Config) error {
	dims := [...]int{c.Inputs, c.Hidden, c.Outputs}
	for _, d := range dims {
		if d <= 0 || d > maxLoadDim {
			return fmt.Errorf("%w: implausible dimension %d", ckpt.ErrBadFormat, d)
		}
	}
	for _, n := range [...]int{c.Hidden * c.Inputs, c.Hidden * c.Outputs, c.Hidden * c.Hidden} {
		if n > maxLoadMatrixElems {
			return fmt.Errorf("%w: implausible matrix size %d", ckpt.ErrBadFormat, n)
		}
	}
	return nil
}

// Save serialises an autoencoder: the score metric followed by its
// model artifact, the whole wrapped in an outer CRC32 footer so the
// metric field — which precedes the model's own checksummed region — is
// covered too.
func (a *Autoencoder) Save(w io.Writer, prec Precision) (int64, error) {
	cw := ckpt.NewWriter(w)
	err := ckpt.PutU32(cw, uint32(a.metric))
	if err == nil {
		_, err = a.model.Save(cw, prec)
	}
	if err == nil {
		err = cw.WriteFooter()
	}
	return cw.N(), err
}

// LoadAutoencoder deserialises an autoencoder written by Save.
func LoadAutoencoder(r io.Reader) (*Autoencoder, error) {
	cr := ckpt.NewReader(r)
	metric, err := ckpt.GetU32(cr)
	if err != nil {
		return nil, ckpt.Corrupt("oselm", fmt.Errorf("load metric: %w", err))
	}
	if metric > uint32(L2Norm) {
		return nil, fmt.Errorf("%w: unknown score metric %d", ckpt.ErrBadFormat, metric)
	}
	m, err := Load(cr)
	if err != nil {
		return nil, err
	}
	if err := cr.VerifyFooter(); err != nil {
		return nil, ckpt.Corrupt("oselm", err)
	}
	if m.cfg.Inputs != m.cfg.Outputs {
		return nil, fmt.Errorf("%w: serialised model is not an autoencoder", ckpt.ErrBadFormat)
	}
	return &Autoencoder{model: m, metric: ScoreMetric(metric)}, nil
}
