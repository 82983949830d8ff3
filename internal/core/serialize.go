package core

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/model"
)

// magic identifies a serialised detector bundle (EDDET3): the shape and
// configuration, the thresholds including the caller-pinned overrides
// (Config.ErrorThreshold / DriftThreshold, which decide how the
// detector re-derives its thresholds after a reconstruction), the
// centroids and counts, then a CRC32 footer (see internal/ckpt).
const magic = "EDDET3"

// Sanity bounds on deserialised shape fields, so a corrupt header fails
// as ErrBadFormat instead of demanding an absurd allocation.
const (
	maxLoadClasses       = 1 << 20
	maxLoadDims          = 1 << 20
	maxLoadCentroidElems = 1 << 26
)

// SaveState serialises the calibrated detector state: configuration,
// centroids, counts and thresholds. The bound model is NOT included —
// pair it with model.(*Multi).Save so host and device agree on both
// halves. SaveState fails on an uncalibrated detector and on one that is
// mid-reconstruction (transient state is deliberately not persistable).
// A field added here is a parameter of setSaved.
func (d *Detector) SaveState(w io.Writer) error {
	if !d.calibrated {
		return errors.New("core: SaveState before Calibrate")
	}
	if d.drift {
		return errors.New("core: SaveState during reconstruction")
	}
	cw, err := ckpt.Create(w, magic)
	if err == nil {
		err = ckpt.PutU32(cw,
			uint32(d.classes), uint32(d.dims), uint32(d.cfg.Window),
			uint32(d.cfg.NSearch), uint32(d.cfg.NUpdate), uint32(d.cfg.NRecon),
			uint32(d.cfg.Distance), uint32(d.cfg.Update), boolU32(d.cfg.ResetModelOnDrift),
			boolU32(d.cfg.ResetWindowState), boolU32(d.cfg.AlwaysCheck),
			boolU32(d.check), uint32(d.win))
	}
	if err == nil {
		err = ckpt.PutF64(cw,
			d.cfg.ZDrift, d.cfg.ZError, d.cfg.EWMAGamma,
			d.thetaError, d.thetaDrift, d.dist,
			// The pinned-threshold overrides. finishReconstruction only
			// re-derives a threshold whose cfg pin is zero, so these decide
			// post-reconstruction behaviour and must survive a round trip.
			d.cfg.ErrorThreshold, d.cfg.DriftThreshold)
	}
	for c := 0; err == nil && c < d.classes; c++ {
		err = ckpt.PutF64(cw, d.row(d.trainCor, c)...)
		if err == nil {
			err = ckpt.PutF64(cw, d.row(d.cor, c)...)
		}
		if err == nil {
			err = ckpt.PutU32(cw, uint32(d.num[c]), uint32(d.baseNum[c]))
		}
	}
	if err != nil {
		return err
	}
	return cw.WriteFooter()
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// CheckpointState serialises the detector's calibrated state with the
// transient window machinery normalised away: the check gate closed,
// the window empty and the recent centroids back at their calibrated
// values. SaveState taken verbatim at a drift instant would freeze a
// full window (win == Window, check set) into the artifact — a detector
// restored from it could never close that window again and would wedge.
// The normalised image is what the model pool stores: restoring it
// drops the detector cleanly back into Monitoring under the thresholds
// it was running when the checkpoint was cut. The live detector is left
// bit-identical to before the call.
func (d *Detector) CheckpointState(w io.Writer) error {
	if !d.calibrated {
		return errors.New("core: CheckpointState before Calibrate")
	}
	if d.drift {
		return errors.New("core: CheckpointState during reconstruction")
	}
	savedCor := slices.Clone(d.cor)
	savedNum := slices.Clone(d.num)
	savedCheck, savedWin, savedDist := d.check, d.win, d.dist
	d.resetRecent()
	d.check, d.win = false, 0
	err := d.SaveState(w)
	copy(d.cor, savedCor)
	copy(d.num, savedNum)
	d.check, d.win, d.dist = savedCheck, savedWin, savedDist
	return err
}

// RestoreState adopts a SaveState/CheckpointState artifact into the
// live detector in place — thresholds, centroids, counts and window
// state — without rebinding the model pointer, so wrappers holding
// references to this detector (a Monitor, a Hybrid, a pool.Stage) keep
// working. The artifact's structural configuration must match the
// detector's; lifetime diagnostics (samplesSeen, driftEvents, health
// counters) are deliberately kept, because a restore is an event in
// this detector's life, not a new detector. Any ongoing reconstruction
// is abandoned: the caller is adopting a fully-adapted state instead.
// On error the detector is unchanged.
func (d *Detector) RestoreState(r io.Reader) error {
	if !d.calibrated {
		return errors.New("core: RestoreState before Calibrate")
	}
	tmp, err := LoadState(r, d.model)
	if err != nil {
		return err
	}
	// Normalise the operational knobs that are host-local and not part
	// of the serialised structural identity.
	want := *d.cfg
	got := *tmp.cfg
	got.Guard, got.ClampLimit = want.Guard, want.ClampLimit
	if got != want {
		return fmt.Errorf("core: restore config mismatch: artifact %+v, detector %+v", tmp.cfg, d.cfg)
	}
	d.thetaError, d.thetaDrift = tmp.thetaError, tmp.thetaDrift
	d.ownTrainCor()
	copy(d.trainCor, tmp.trainCor)
	copy(d.cor, tmp.cor)
	copy(d.num, tmp.num)
	copy(d.baseNum, tmp.baseNum)
	d.check, d.win, d.dist = tmp.check, tmp.win, tmp.dist
	d.drift = false
	d.count = 0
	d.reconDists.Reset()
	d.reconScores.Reset()
	for c := range d.starve {
		d.starve[c] = 0
	}
	d.calibrated = true
	return nil
}

// LoadState deserialises an EDDET3 detector state written by SaveState
// and binds it to the given model, which must match the saved class
// count and dimension. Every failure matches ckpt.ErrBadFormat.
func LoadState(r io.Reader, m *model.Multi) (*Detector, error) {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return nil, err
	}
	d, err := loadStateBody(cr, m)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return nil, ckpt.Corrupt("core", err)
	}
	return d, nil
}

// loadStateBody parses the payload that follows the magic.
func loadStateBody(r io.Reader, m *model.Multi) (*Detector, error) {
	var u [13]uint32
	for i := range u {
		v, err := ckpt.GetU32(r)
		if err != nil {
			return nil, err
		}
		u[i] = v
	}
	var f [8]float64
	if err := ckpt.GetF64s(r, f[:]); err != nil {
		return nil, err
	}
	classes, dims := int(u[0]), int(u[1])
	if classes <= 0 || classes > maxLoadClasses || dims <= 0 || dims > maxLoadDims ||
		classes*dims > maxLoadCentroidElems {
		return nil, fmt.Errorf("%w: implausible shape %d×%d", ckpt.ErrBadFormat, classes, dims)
	}
	if m.Classes() != classes {
		return nil, fmt.Errorf("core: model has %d classes, state has %d", m.Classes(), classes)
	}
	if m.Config().Inputs != dims {
		return nil, fmt.Errorf("core: model dimension %d, state %d", m.Config().Inputs, dims)
	}
	cfg := Config{
		Window:            int(u[2]),
		NSearch:           int(u[3]),
		NUpdate:           int(u[4]),
		NRecon:            int(u[5]),
		Distance:          DistanceKind(u[6]),
		Update:            CentroidUpdate(u[7]),
		ResetModelOnDrift: u[8] == 1,
		ResetWindowState:  u[9] == 1,
		AlwaysCheck:       u[10] == 1,
		ZDrift:            f[0],
		ZError:            f[1],
		EWMAGamma:         f[2],
		ErrorThreshold:    f[6],
		DriftThreshold:    f[7],
		Precision:         m.Precision(),
	}
	d, err := New(m, cfg)
	if err != nil {
		return nil, err
	}
	trainCor, cor := make([]float64, classes*dims), make([]float64, classes*dims)
	num, baseNum := newCounts(classes)
	for c := 0; c < classes; c++ {
		if err := ckpt.GetF64s(r, d.row(trainCor, c)); err != nil {
			return nil, err
		}
		if err := ckpt.GetF64s(r, d.row(cor, c)); err != nil {
			return nil, err
		}
		var n, bn uint32
		if err := ckpt.GetU32s(r, &n, &bn); err != nil {
			return nil, err
		}
		num[c], baseNum[c] = int(n), int(bn)
	}
	d.setSaved(f[3], f[4], u[11] == 1, int(u[12]), f[5], trainCor, cor, num, baseNum)
	return d, nil
}

// setSaved gives a detector fresh from New the state SaveState
// persists beyond the configuration, and marks it calibrated. Both ways
// of building a detector that continues a saved or live one go through
// it — loadStateBody and CloneAt — so a field SaveState gains is a
// parameter here, and neither can leave it out. The slices are adopted,
// not copied.
func (d *Detector) setSaved(thetaError, thetaDrift float64, check bool, win int, dist float64,
	trainCor, cor []float64, num, baseNum []int) {
	d.thetaError, d.thetaDrift = thetaError, thetaDrift
	d.check, d.win, d.dist = check, win, dist
	d.trainCor, d.cor = trainCor, cor
	d.num, d.baseNum = num, baseNum
	d.calibrated = true
	d.initScoreBins()
}
