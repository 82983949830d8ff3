package edgedrift

import (
	"errors"
	"fmt"

	"edgedrift/internal/core"
	"edgedrift/internal/fixed"
)

// Transitioner is the runtime precision-lifecycle capability
// (re-exported from core): a stage that can Demote to a cheaper numeric
// backend under pressure and Promote back exactly. Monitor implements
// it; the fleet and the pressure governor discover it through the same
// Inner() seam as the Merger capability.
type Transitioner = core.Transitioner

// Monitor is a Transitioner: precision is a runtime lifecycle, not a
// constructor choice.
var _ core.Transitioner = (*Monitor)(nil)

// Demote switches the monitor to a cheaper numeric backend at runtime:
// Float32 (weights narrowed, RLS state copied bit-for-bit — the twin
// keeps adapting, including drift-triggered reconstruction) or Fixed16
// (the detect-only Q16.16 port). The monitor's own full-precision state
// is frozen in place as the retained origin — nothing is widened from
// rounded state, ever — so Promote resumes it bit-exactly from the
// demotion instant. Valid demotions go strictly down: f64 → f32,
// f64 → q16, f32 → q16. Demoting an already-demoted monitor or one that
// is mid-reconstruction fails and changes nothing.
//
// The price of exact reversibility is that samples processed while
// demoted advance only the twin: promotion deliberately discards the
// degraded interval's adaptations along with its rounding. Size the
// retained state into memory budgets accordingly — MemoryBytes reports
// origin + twin while demoted.
func (m *Monitor) Demote(target Precision) error {
	if !m.fit {
		return errors.New("edgedrift: Demote before Fit")
	}
	if m.degraded != nil {
		return fmt.Errorf("edgedrift: already demoted to %v", m.ActivePrecision())
	}
	switch target {
	case Float32:
		if m.opts.Precision != Float64 {
			return fmt.Errorf("edgedrift: cannot demote %v monitor to %v (demotions go strictly down)", m.opts.Precision, target)
		}
		twin, err := m.deriveAt(Float32)
		if err != nil {
			return fmt.Errorf("edgedrift: demote to f32: %w", err)
		}
		m.degraded = twin
	case Fixed16:
		if m.det.PhaseNow() == Reconstructing {
			return errors.New("edgedrift: demote to q16 during reconstruction")
		}
		fs, err := m.deriveQ16()
		if err != nil {
			return fmt.Errorf("edgedrift: demote to q16: %w", err)
		}
		m.degraded = fs
	default:
		return fmt.Errorf("edgedrift: %v is not a demotion target (valid: f32, q16)", target)
	}
	return nil
}

// Promote discards the reduced-precision twin and resumes the retained
// full-precision origin exactly as it was when Demote ran — the origin
// was frozen, not round-tripped, so the continuation is bit-identical
// to a monitor that never degraded. It fails if the monitor is not
// demoted.
func (m *Monitor) Promote() error {
	if m.degraded == nil {
		return errors.New("edgedrift: Promote on a non-demoted monitor")
	}
	m.degraded = nil
	return nil
}

// Degraded reports whether the monitor is currently demoted.
func (m *Monitor) Degraded() bool { return m.degraded != nil }

// ActivePrecision returns the precision samples are currently processed
// at: Options.Precision normally, the twin's while demoted.
func (m *Monitor) ActivePrecision() Precision {
	switch t := m.degraded.(type) {
	case nil:
		return m.opts.Precision
	case *Monitor:
		return t.opts.Precision
	default:
		return Fixed16
	}
}

// deriveAt builds the monitor's reduced-precision float twin: the model
// converted in the oselm layer (weights narrowed, RLS state bit-exact)
// and the detector state copied by core.Detector.CloneAt, with guard
// policy and lifetime diagnostics preserved. A clone at another
// precision shares nothing with its source, so the receiver is not
// mutated.
func (m *Monitor) deriveAt(p Precision) (*Monitor, error) {
	mm, err := m.model.ConvertPrecision(p)
	if err != nil {
		return nil, err
	}
	det, err := m.det.CloneAt(mm)
	if err != nil {
		return nil, err
	}
	opts := m.opts
	opts.Precision = p
	return &Monitor{opts: opts, model: mm, det: det, rng: m.rng, fit: true}, nil
}

// deriveQ16 quantises the monitor's current state into the Q16.16
// detect-only stage — the shared machinery behind both QuantizeQ16 (a
// standalone port for split deployments) and Demote(Fixed16) (the same
// port installed as the monitor's degraded twin).
func (m *Monitor) deriveQ16() (*fixed.Monitor, error) {
	if !m.fit {
		return nil, errors.New("edgedrift: QuantizeQ16 before Fit")
	}
	return fixed.QuantizeDetector(m.det), nil
}

// adoptDegraded reattaches a deserialised twin to the monitor — the
// load half of a FLEET4 degraded-member round trip. The twin must be at
// a strictly lower precision than the monitor's own.
func (m *Monitor) adoptDegraded(twin core.Streaming) error {
	if m.degraded != nil {
		return errors.New("edgedrift: monitor already has a degraded twin")
	}
	switch t := twin.(type) {
	case *Monitor:
		if m.opts.Precision != Float64 || t.opts.Precision != Float32 {
			return fmt.Errorf("edgedrift: degraded twin precision %v under a %v origin", t.opts.Precision, m.opts.Precision)
		}
	case *fixed.Monitor:
		// Any float origin can carry a q16 twin.
	default:
		return fmt.Errorf("edgedrift: %T is not a degraded twin", twin)
	}
	m.degraded = twin
	return nil
}
