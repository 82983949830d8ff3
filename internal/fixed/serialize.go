package fixed

import (
	"encoding/binary"
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
)

// magic identifies a serialised fixed-point monitor (QFIX01): the
// magic, the monitor geometry, every instance's quantised parameters,
// the centroid state and the drift state machine, all as exact Q16.16
// words — integer state round-trips bit-for-bit by construction. The
// artifact is covered by a ckpt CRC32 footer like every other wire
// format in this repository, so corruption fails loudly at load.
//
// This is what makes a Q16.16 fleet member checkpointable and therefore
// migratable: the float Monitor ships as an OSELM3 artifact, the
// quantised port ships as QFIX01, and the fleet container's member-kind
// byte says which decoder to use.
const magic = "QFIX01"

// Sanity bounds so a corrupt header fails as ckpt.ErrBadFormat instead of
// demanding an absurd allocation.
const (
	maxLoadDim         = 1 << 20
	maxLoadMatrixElems = 1 << 20
	maxLoadClasses     = 1 << 16
	maxLoadEvents      = 1 << 24
)

// Save serialises the monitor's complete state to w. The artifact is a
// sample-boundary snapshot: loading it and feeding the same subsequent
// samples produces bit-identical results to never having saved, because
// every retained word is an integer written verbatim (compute staging —
// h, recon and quantise buffers — is rebuilt at load and never
// carries state across samples).
func (mon *Monitor) Save(w io.Writer) error {
	cw, err := ckpt.Create(w, magic)
	if err != nil {
		return err
	}
	if err := ckpt.PutU32(cw, uint32(mon.dims), uint32(mon.window), uint32(len(mon.instances))); err != nil {
		return err
	}
	if err := putQs(cw, []Q{mon.thetaError, mon.thetaDrift}); err != nil {
		return err
	}
	for _, inst := range mon.instances {
		if err := ckpt.PutU32(cw, uint32(inst.inputs), uint32(inst.hidden), uint32(inst.sat)); err != nil {
			return err
		}
		for _, qs := range [][]Q{inst.w, inst.bias, inst.beta} {
			if err := putQs(cw, qs); err != nil {
				return err
			}
		}
	}
	for c := range mon.instances {
		if err := putQs(cw, mon.trainCor[c]); err != nil {
			return err
		}
		if err := putQs(cw, mon.cor[c]); err != nil {
			return err
		}
		if err := ckpt.PutU32(cw, uint32(mon.num[c])); err != nil {
			return err
		}
	}
	flags := byte(0)
	if mon.check {
		flags |= 1
	}
	if mon.pending {
		flags |= 2
	}
	if _, err := cw.Write([]byte{flags}); err != nil {
		return err
	}
	if err := ckpt.PutU32(cw, uint32(mon.win)); err != nil {
		return err
	}
	if err := putQs(cw, []Q{mon.dist}); err != nil {
		return err
	}
	if err := ckpt.PutU64(cw, uint64(mon.samples)); err != nil {
		return err
	}
	if err := ckpt.PutU32(cw, uint32(len(mon.events))); err != nil {
		return err
	}
	for _, e := range mon.events {
		if err := ckpt.PutU64(cw, uint64(e)); err != nil {
			return err
		}
	}
	if err := ckpt.PutU32(cw, uint32(mon.sat)); err != nil {
		return err
	}
	return cw.WriteFooter()
}

// LoadMonitor deserialises a monitor written by Save. It is immediately
// ready to Process; operation counting (SetOps) is reattached by the
// caller as needed.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return nil, err
	}
	mon, err := loadBody(cr)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return nil, ckpt.Corrupt("fixed", err)
	}
	return mon, nil
}

// loadBody parses the payload that follows the magic.
func loadBody(r io.Reader) (*Monitor, error) {
	var dims, window, classes uint32
	if err := ckpt.GetU32s(r, &dims, &window, &classes); err != nil {
		return nil, err
	}
	if dims == 0 || dims > maxLoadDim || window > maxLoadDim || classes == 0 || classes > maxLoadClasses {
		return nil, fmt.Errorf("implausible geometry dims=%d window=%d classes=%d", dims, window, classes)
	}
	mon := &Monitor{
		dims:   int(dims),
		window: int(window),
		num:    make([]int32, classes),
		xq:     make([]Q, dims),
	}
	var thetas [2]Q
	if err := getQs(r, thetas[:]); err != nil {
		return nil, err
	}
	mon.thetaError, mon.thetaDrift = thetas[0], thetas[1]
	for c := uint32(0); c < classes; c++ {
		var inputs, hidden, sat uint32
		if err := ckpt.GetU32s(r, &inputs, &hidden, &sat); err != nil {
			return nil, err
		}
		// Every instance reconstructs a dims-wide sample, and the weight
		// matrices are bounded before they are allocated.
		if inputs != dims || hidden == 0 || uint64(hidden)*uint64(inputs) > maxLoadMatrixElems {
			return nil, fmt.Errorf("instance %d: implausible shape %dx%d", c, inputs, hidden)
		}
		inst := &Autoencoder{
			inputs: int(inputs),
			hidden: int(hidden),
			w:      make([]Q, int(hidden)*int(inputs)),
			bias:   make([]Q, hidden),
			beta:   make([]Q, int(hidden)*int(inputs)),
			h:      make([]Q, hidden),
			recon:  make([]Q, inputs),
			sat:    int(sat),
		}
		for _, qs := range [][]Q{inst.w, inst.bias, inst.beta} {
			if err := getQs(r, qs); err != nil {
				return nil, fmt.Errorf("instance %d: %w", c, err)
			}
		}
		mon.instances = append(mon.instances, inst)
	}
	for c := uint32(0); c < classes; c++ {
		trainCor := make([]Q, dims)
		cor := make([]Q, dims)
		if err := getQs(r, trainCor); err != nil {
			return nil, err
		}
		if err := getQs(r, cor); err != nil {
			return nil, err
		}
		var num uint32
		if err := ckpt.GetU32s(r, &num); err != nil {
			return nil, err
		}
		mon.trainCor = append(mon.trainCor, trainCor)
		mon.cor = append(mon.cor, cor)
		mon.num[c] = int32(num)
	}
	var flags [1]byte
	if _, err := io.ReadFull(r, flags[:]); err != nil {
		return nil, err
	}
	mon.check = flags[0]&1 != 0
	mon.pending = flags[0]&2 != 0
	var win uint32
	if err := ckpt.GetU32s(r, &win); err != nil {
		return nil, err
	}
	mon.win = int(win)
	var dist [1]Q
	if err := getQs(r, dist[:]); err != nil {
		return nil, err
	}
	mon.dist = dist[0]
	smp, err := ckpt.GetU64(r)
	if err != nil {
		return nil, err
	}
	mon.samples = int(smp)
	var nEvents uint32
	if err := ckpt.GetU32s(r, &nEvents); err != nil {
		return nil, err
	}
	if nEvents > maxLoadEvents {
		return nil, fmt.Errorf("implausible event count %d", nEvents)
	}
	for i := uint32(0); i < nEvents; i++ {
		e, err := ckpt.GetU64(r)
		if err != nil {
			return nil, err
		}
		mon.events = append(mon.events, int(e))
	}
	var sat uint32
	if err := ckpt.GetU32s(r, &sat); err != nil {
		return nil, err
	}
	mon.sat = int(sat)
	return mon, nil
}

// putQs writes a Q16.16 vector as little-endian 32-bit words.
func putQs(w io.Writer, qs []Q) error {
	buf := make([]byte, 4*len(qs))
	for i, q := range qs {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(q))
	}
	_, err := w.Write(buf)
	return err
}

// getQs reads len(qs) little-endian 32-bit words into qs.
func getQs(r io.Reader, qs []Q) error {
	buf := make([]byte, 4*len(qs))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range qs {
		qs[i] = Q(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return nil
}
