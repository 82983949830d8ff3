// Package pool implements the reoccurring-drift model pool: a bounded
// LRU of checkpointed (model, detector-state) pairs cut at each
// detected drift, plus the matching logic that restores one bit-exactly
// when a later drift turns out to be an old concept returning.
//
// The paper's reoccurring scenario (Fig. 1) makes cold retraining pure
// waste: the fan returns to its pre-drift state, yet the method rebuilds
// the model from scratch over N_recon samples. The pool instead
// checkpoints the outgoing model at the drift instant — before
// ResetModelOnDrift clears it — and, once a window of post-drift
// samples has accumulated, scores every pooled model on that window.
// If one already fits (median anomaly score within Margin of the
// checkpoint's own θ_error), its state is poured back into the live
// model and detector in place, abandoning the cold reconstruction
// mid-flight. Restores are bit-exact: the adopted model continues the
// stream with the identical arithmetic a freshly-loaded copy of the
// checkpoint would.
package pool

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
)

// Config configures a pool stage.
type Config struct {
	// Capacity bounds the LRU; zero defaults to 4 checkpoints.
	Capacity int
	// Margin is the fit bar: a pooled model matches the post-drift
	// window when its median anomaly score is at most Margin times the
	// θ_error it was checkpointed with. Zero defaults to 1.25, the
	// probe margin the cooperative-recovery experiment uses.
	Margin float64
}

// entry is one checkpoint: the serialised model (always float64 wire,
// so both numeric backends round-trip exactly), the normalised detector
// state, and the θ_error the fit bar is measured against.
type entry struct {
	modelBlob  []byte
	detBlob    []byte
	thetaError float64
}

// Stage wraps a calibrated core.Detector with the model pool. It is a
// core.Streaming stage: samples flow through Process unchanged, and the
// pool machinery runs off the detector's drift hook plus a short
// post-drift countdown.
type Stage struct {
	det *core.Detector
	cfg Config

	entries []*entry // front = most recently used

	// ring holds copies of the last Window accepted samples — the
	// evidence window a later drift is matched against.
	ring  [][]float64
	rfill int
	rpos  int

	// countdown, when positive, counts accepted samples until the
	// post-drift match runs: the drift window itself belongs to the
	// dying concept (a reoccurring drift is detected at the END of the
	// transient, when the old concept is already back), so the match
	// waits for a full ring of fresh samples.
	countdown int

	hits      uint64
	misses    uint64
	restores  uint64
	evictions uint64
}

// NewStage wraps det, which must already be calibrated, and registers
// the drift-checkpoint hook on it.
func NewStage(det *core.Detector, cfg Config) (*Stage, error) {
	if det == nil {
		return nil, errors.New("pool: nil detector")
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 4
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("pool: negative capacity %d", cfg.Capacity)
	}
	if cfg.Margin == 0 {
		cfg.Margin = 1.25
	}
	if cfg.Margin <= 0 {
		return nil, fmt.Errorf("pool: non-positive margin %v", cfg.Margin)
	}
	p := &Stage{
		det:  det,
		cfg:  cfg,
		ring: make([][]float64, det.Config().Window),
	}
	det.SetDriftHook(p.checkpoint)
	return p, nil
}

// Detector returns the wrapped detector.
func (p *Stage) Detector() *core.Detector { return p.det }

// Inner returns the wrapped detector as a Streaming stage, keeping the
// capability-discovery seam wrapping stages walk.
func (p *Stage) Inner() core.Streaming { return p.det }

// Hits and Restores expose the pool counters; Health carries all four.
func (p *Stage) Hits() uint64     { return p.hits }
func (p *Stage) Restores() uint64 { return p.restores }

// Len returns the number of pooled checkpoints.
func (p *Stage) Len() int { return len(p.entries) }

// checkpoint runs inside the detector's drift transition, while the
// outgoing model and calibrated state are still intact. Failures leave
// the pool unchanged — a checkpoint that cannot be cut must never turn
// a working drift response into a panic.
func (p *Stage) checkpoint() {
	var mbuf bytes.Buffer
	// Always float64 on the wire: exact for the f64 backend, and the
	// f32 backend's weights widen/narrow losslessly while P (kept
	// float64 for conditioning) would be truncated by an f32 wire.
	if _, err := p.det.Model().Save(&mbuf, oselm.Float64); err != nil {
		return
	}
	var dbuf bytes.Buffer
	if err := p.det.CheckpointState(&dbuf); err != nil {
		return
	}
	p.entries = append([]*entry{{
		modelBlob:  mbuf.Bytes(),
		detBlob:    dbuf.Bytes(),
		thetaError: p.det.ThetaError(),
	}}, p.entries...)
	for len(p.entries) > p.cfg.Capacity {
		p.entries = p.entries[:len(p.entries)-1]
		p.evictions++
	}
}

// Process forwards the sample to the detector, maintains the evidence
// ring, and drives the post-drift match countdown.
func (p *Stage) Process(x []float64) core.Result {
	res := p.det.Process(x)
	if !res.Rejected {
		p.push(x)
		if res.DriftDetected {
			p.countdown = len(p.ring)
		} else if p.countdown > 0 {
			p.countdown--
			if p.countdown == 0 {
				p.match()
			}
		}
	}
	return res
}

// push copies x into the ring.
func (p *Stage) push(x []float64) {
	if p.ring[p.rpos] == nil {
		p.ring[p.rpos] = make([]float64, len(x))
	}
	copy(p.ring[p.rpos], x)
	p.rpos = (p.rpos + 1) % len(p.ring)
	if p.rfill < len(p.ring) {
		p.rfill++
	}
}

// match scores every pooled checkpoint against the ring — the Window
// samples that followed the drift — and restores the best fit. It only
// acts while the cold reconstruction is still running; if the detector
// already finished adapting, the freshly-trained model wins by default.
//
// Fit is the MEDIAN anomaly score over the ring relative to the
// checkpoint's θ_error, not the mean: the ring's oldest samples can
// still belong to the dying concept (a reoccurring drift is detected
// near the end of its transient), and on such samples a non-fitting
// model scores orders of magnitude above θ_error — a single straddler
// would veto a checkpoint that fits every fresh sample. The median
// tolerates up to half a ring of straddlers while still rejecting a
// model that misfits the majority.
func (p *Stage) match() {
	if len(p.entries) == 0 || p.rfill < len(p.ring) {
		return
	}
	if p.det.PhaseNow() != core.Reconstructing {
		return
	}
	best := -1
	bestRatio := p.cfg.Margin
	var bestModel *model.Multi
	scores := make([]float64, len(p.ring))
	for i, e := range p.entries {
		m, err := model.Load(bytes.NewReader(e.modelBlob))
		if err != nil {
			continue // unreachable for in-process checkpoints; be safe
		}
		for j, x := range p.ring {
			_, scores[j] = m.Predict(x)
		}
		sort.Float64s(scores)
		ratio := scores[len(scores)/2] / e.thetaError
		if ratio <= bestRatio {
			best, bestRatio, bestModel = i, ratio, m
		}
	}
	if best < 0 {
		p.misses++
		return
	}
	p.hits++
	e := p.entries[best]
	if err := p.det.Model().AdoptState(bestModel); err != nil {
		return
	}
	if err := p.det.RestoreState(bytes.NewReader(e.detBlob)); err != nil {
		return
	}
	p.restores++
	// LRU touch: the restored concept is the most likely to reoccur.
	p.entries = append(p.entries[:best], p.entries[best+1:]...)
	p.entries = append([]*entry{e}, p.entries...)
}

// MemoryBytes audits the detector plus the pool's retained state: the
// checkpoint blobs and the evidence ring.
func (p *Stage) MemoryBytes() int {
	n := p.det.MemoryBytes()
	for _, e := range p.entries {
		n += len(e.modelBlob) + len(e.detBlob) + 8
	}
	for _, x := range p.ring {
		n += 8 * len(x)
	}
	return n + 6*8
}

// Health returns the detector's snapshot with the pool counters added
// in, per the stage-composition rule.
func (p *Stage) Health() health.Snapshot {
	s := p.det.Health()
	s.PoolHits += p.hits
	s.PoolMisses += p.misses
	s.PoolRestores += p.restores
	s.PoolEvictions += p.evictions
	return s
}

// PhaseNow forwards the detector's phase.
func (p *Stage) PhaseNow() core.Phase { return p.det.PhaseNow() }

var _ core.Streaming = (*Stage)(nil)

// magic identifies the POOL1 container: the magic, a u32 entry count,
// then each entry as (f64 θ_error, length-prefixed model blob,
// length-prefixed detector blob) in LRU order (most recent first), all
// covered by one ckpt CRC32 footer. The nested blobs carry their own
// footers, so a flipped bit fails at both the container and the
// artifact level.
const magic = "POOL1"

// Sanity bounds so a corrupt header fails as ckpt.ErrBadFormat instead of
// demanding an absurd allocation.
const (
	maxLoadEntries  = 1 << 12
	maxLoadBlobSize = 1 << 28
)

// Save serialises the pooled checkpoints to w as a POOL1 container.
// The wrapped detector is not included — the pool artifact is portable
// across restarts of the same deployment, which persists its detector
// and model through their own formats.
func (p *Stage) Save(w io.Writer) error {
	cw, err := ckpt.Create(w, magic)
	if err == nil {
		err = ckpt.PutU32(cw, uint32(len(p.entries)))
	}
	for _, e := range p.entries {
		if err == nil {
			err = ckpt.PutF64(cw, e.thetaError)
		}
		for _, blob := range [][]byte{e.modelBlob, e.detBlob} {
			if err == nil {
				err = ckpt.PutU32(cw, uint32(len(blob)))
			}
			if err == nil {
				_, err = cw.Write(blob)
			}
		}
	}
	if err != nil {
		return err
	}
	return cw.WriteFooter()
}

// Load replaces the stage's pooled checkpoints with the POOL1 container
// read from r. Every failure matches ckpt.ErrBadFormat so callers can classify
// corruption with errors.Is; on error the stage keeps its old entries.
func (p *Stage) Load(r io.Reader) error {
	entries, err := decodeEntries(r)
	if err != nil {
		return err
	}
	p.entries = entries
	return nil
}

// decodeEntries parses a POOL1 container.
func decodeEntries(r io.Reader) ([]*entry, error) {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return nil, err
	}
	entries, err := decodeBody(cr)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return nil, ckpt.Corrupt("pool", err)
	}
	return entries, nil
}

// decodeBody parses the entries that follow the magic.
func decodeBody(r io.Reader) ([]*entry, error) {
	count, err := ckpt.GetU32(r)
	if err != nil {
		return nil, err
	}
	if count > maxLoadEntries {
		return nil, fmt.Errorf("implausible entry count %d", count)
	}
	entries := make([]*entry, 0, count)
	for i := uint32(0); i < count; i++ {
		e := &entry{}
		if e.thetaError, err = ckpt.GetF64(r); err != nil {
			return nil, err
		}
		if e.modelBlob, err = getBlob(r); err != nil {
			return nil, err
		}
		if e.detBlob, err = getBlob(r); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func getBlob(r io.Reader) ([]byte, error) {
	n, err := ckpt.GetU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxLoadBlobSize {
		return nil, fmt.Errorf("implausible blob size %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
