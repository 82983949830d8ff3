package edgedrift

import (
	"errors"
	"fmt"
	"io"
	"os"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

// ErrBadFormat reports a stream that is not a monitor or fleet artifact
// of the live version (pre-OSELM3/EDDET3 monitors and pre-FLEET4 fleets
// no longer load), or one that is truncated or corrupt — including a
// single flipped byte anywhere in the stream. Classify load failures
// with errors.Is(err, edgedrift.ErrBadFormat). It is the one sentinel
// every checkpoint loader in the module fails with.
var ErrBadFormat = ckpt.ErrBadFormat

// Precision selects the float width of saved monitors; use Float32 for
// microcontroller deployment artifacts.
type Precision = oselm.Precision

// Precision values. Float64 and Float32 are wire and compute
// precisions; Fixed16 is the Q16.16 backend of Monitor.QuantizeQ16
// (compute-only, never a wire format).
const (
	Float64 = oselm.Float64
	Float32 = oselm.Float32
	Fixed16 = oselm.Fixed16
)

// ParsePrecision maps the spellings "f64"/"float64", "f32"/"float32"
// and "q16"/"fixed16" to a Precision, with an error naming the valid
// set otherwise.
func ParsePrecision(s string) (Precision, error) { return oselm.ParsePrecision(s) }

// Save serialises the fitted monitor — discriminative model and detector
// state — to w. This is the host-side half of the paper's workflow:
// train and calibrate on a capable machine, ship the artifact to the
// edge device, and continue purely sequential operation there.
func (m *Monitor) Save(w io.Writer, prec Precision) error {
	if !m.fit {
		return errors.New("edgedrift: Save before Fit")
	}
	if _, err := m.model.Save(w, prec); err != nil {
		return fmt.Errorf("edgedrift: save model: %w", err)
	}
	if err := m.det.SaveState(w); err != nil {
		return fmt.Errorf("edgedrift: save detector: %w", err)
	}
	return nil
}

// LoadMonitor deserialises a monitor written by Save. It is immediately
// ready to Process.
func LoadMonitor(r io.Reader) (*Monitor, error) { return loadMonitor(r, nil) }

// loadMonitor is LoadMonitor reading the model's projections through p
// (see oselm.Projections); a nil p loads as LoadMonitor does.
func loadMonitor(r io.Reader, p *oselm.Projections) (*Monitor, error) {
	mm, err := model.LoadWith(r, p)
	if err != nil {
		return nil, fmt.Errorf("edgedrift: load model: %w", err)
	}
	det, err := core.LoadState(r, mm)
	if err != nil {
		return nil, fmt.Errorf("edgedrift: load detector: %w", err)
	}
	cfg := mm.Config()
	return &Monitor{
		opts: &Options{
			Classes:    cfg.Classes,
			Inputs:     cfg.Inputs,
			Hidden:     cfg.Hidden,
			Window:     det.Config().Window,
			Forgetting: cfg.Forgetting,
			Ridge:      cfg.Ridge,
			Precision:  cfg.Precision,
		},
		model: mm,
		det:   det,
		rng:   rng.New(0),
		fit:   true,
	}, nil
}

// SaveFile atomically writes the monitor artifact to path: the bytes go
// to a temporary file in the same directory, are flushed to stable
// storage, and only then renamed over path. A crash or power loss midway
// leaves either the old artifact or the new one — never a torn file that
// would fail its checksum on the next boot.
func (m *Monitor) SaveFile(path string, prec Precision) error {
	return ckpt.WriteFileAtomic(path, func(w io.Writer) error { return m.Save(w, prec) })
}

// LoadMonitorFile deserialises a monitor artifact written by SaveFile
// (or Save). Corruption — truncation, bit rot, a torn write — fails with
// an error matching ErrBadFormat.
func LoadMonitorFile(path string) (*Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgedrift: load %s: %w", path, err)
	}
	defer f.Close()
	m, err := LoadMonitor(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return m, nil
}
