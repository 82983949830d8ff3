package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"edgedrift/internal/oselm"
)

// mergeStateMagic heads a serialised merge-state blob: the per-instance
// trained state (β/P plus projection) of one Multi, exported for
// cooperative seeding. Each instance artifact carries its own CRC32
// footer, so the container needs no second checksum.
var mergeStateMagic = [5]byte{'E', 'D', 'M', 'S', '1'}

// Fingerprint returns the model's merge-compatibility fingerprint:
// FNV-1a over the class count and every instance's fingerprint (which
// covers shape, activation, precision, RLS constants and projection
// bits — see oselm.Model.Fingerprint). Two Multis merge cleanly iff
// their fingerprints match.
func (m *Multi) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.cfg.Classes))
	for i := range m.instances {
		put(m.instances[i].Fingerprint())
	}
	return h.Sum64()
}

// Merge replaces every instance's learned state with the closed-form
// combination of the sources' corresponding instances (see
// oselm.Model.Merge). All sources are validated against every instance
// before any state is written, so an incompatible source — wrapped as
// oselm.ErrMergeIncompatible — leaves m untouched.
func (m *Multi) Merge(srcs ...*Multi) error {
	if len(srcs) == 0 {
		return fmt.Errorf("model: merge: %w", &oselm.MergeError{Reason: "no source models"})
	}
	for k, s := range srcs {
		if s == nil {
			return fmt.Errorf("model: merge source %d: %w", k, &oselm.MergeError{Reason: "nil model"})
		}
		if s.cfg.Classes != m.cfg.Classes {
			return fmt.Errorf("model: merge source %d: %w", k,
				&oselm.MergeError{Reason: fmt.Sprintf("class count %d vs %d", m.cfg.Classes, s.cfg.Classes)})
		}
		for i := range m.instances {
			if err := m.instances[i].Model().CompatibleWith(s.instances[i].Model()); err != nil {
				return fmt.Errorf("model: merge source %d instance %d: %w", k, i, err)
			}
		}
	}
	peers := make([]*oselm.Autoencoder, len(srcs))
	for i := range m.instances {
		for k, s := range srcs {
			peers[k] = &s.instances[i]
		}
		if err := m.instances[i].Merge(peers...); err != nil {
			return fmt.Errorf("model: merge instance %d: %w", i, err)
		}
	}
	return nil
}

// ExportMergeState serialises the model's trained state — every
// instance at float64 wire precision, so nothing is lost in transit —
// into a blob MergeStates can consume, locally or across shards.
func (m *Multi) ExportMergeState() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(mergeStateMagic[:])
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(m.instances)))
	buf.Write(u4[:])
	for i := range m.instances {
		var inst bytes.Buffer
		if _, err := m.instances[i].Save(&inst, oselm.Float64); err != nil {
			return nil, fmt.Errorf("model: export instance %d: %w", i, err)
		}
		var u8 [8]byte
		binary.LittleEndian.PutUint64(u8[:], uint64(inst.Len()))
		buf.Write(u8[:])
		buf.Write(inst.Bytes())
	}
	return buf.Bytes(), nil
}

// decodeMergeState parses one ExportMergeState blob back into its
// per-instance autoencoders.
func decodeMergeState(b []byte) ([]*oselm.Autoencoder, error) {
	if len(b) < len(mergeStateMagic)+4 || !bytes.Equal(b[:len(mergeStateMagic)], mergeStateMagic[:]) {
		return nil, fmt.Errorf("model: not a merge-state blob")
	}
	b = b[len(mergeStateMagic):]
	n := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if n == 0 || n > 1<<16 {
		return nil, fmt.Errorf("model: merge-state blob has implausible instance count %d", n)
	}
	out := make([]*oselm.Autoencoder, 0, n)
	for i := 0; i < int(n); i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("model: merge-state blob truncated at instance %d", i)
		}
		sz := binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		if uint64(len(b)) < sz {
			return nil, fmt.Errorf("model: merge-state blob truncated at instance %d", i)
		}
		ae, err := oselm.LoadAutoencoder(bytes.NewReader(b[:sz]))
		if err != nil {
			return nil, fmt.Errorf("model: merge-state instance %d: %w", i, err)
		}
		out = append(out, ae)
		b = b[sz:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("model: merge-state blob has %d trailing bytes", len(b))
	}
	return out, nil
}

// MergeStates decodes peer state blobs (from ExportMergeState, possibly
// shipped across shards) and replaces the model's learned state with
// their closed-form combination. Every blob is decoded and validated
// against every instance before any state is written; incompatible
// peers are rejected with oselm.ErrMergeIncompatible.
func (m *Multi) MergeStates(states [][]byte) error {
	if len(states) == 0 {
		return fmt.Errorf("model: merge: %w", &oselm.MergeError{Reason: "no peer states"})
	}
	decoded := make([][]*oselm.Autoencoder, len(states))
	for k, st := range states {
		aes, err := decodeMergeState(st)
		if err != nil {
			return err
		}
		if len(aes) != len(m.instances) {
			return fmt.Errorf("model: merge state %d: %w", k,
				&oselm.MergeError{Reason: fmt.Sprintf("class count %d vs %d", len(m.instances), len(aes))})
		}
		for i := range m.instances {
			if err := m.instances[i].Model().CompatibleWith(aes[i].Model()); err != nil {
				return fmt.Errorf("model: merge state %d instance %d: %w", k, i, err)
			}
		}
		decoded[k] = aes
	}
	peers := make([]*oselm.Autoencoder, len(decoded))
	for i := range m.instances {
		for k := range decoded {
			peers[k] = decoded[k][i]
		}
		if err := m.instances[i].Merge(peers...); err != nil {
			return fmt.Errorf("model: merge instance %d: %w", i, err)
		}
	}
	return nil
}
