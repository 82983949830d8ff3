package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
)

// magic identifies the fleet container (FLEET4): the magic, a member
// count, then each member in sorted-ID order as its ID, a one-byte
// member kind (which decoder the payload needs: a float Monitor, a
// Q16.16 stage, or a degraded member carrying its full-precision origin
// and reduced-precision twin), a length-prefixed cohort name, the
// member's u64 merge fingerprint at save time, and a length-prefixed
// payload. Every member payload is written through its own nested
// ckpt.Writer and carries its own CRC32 footer, and the whole container
// — member footers included — is covered by one outer footer. A flipped
// bit therefore fails twice: once at the damaged member, once at the
// container level, and the member ID in the error says which stream's
// state is unusable. The fingerprint is informational — a loader
// re-derives the live value from the decoded stage, which is what the
// cohort index uses — but it lets offline tooling group compatible
// members without decoding payloads.
const magic = "FLEET4"

// ErrExportCollision reports a failed ExportMember whose rollback found
// the id re-registered: between the deregistration and the encode
// failure, Add (or an import) created a new member under the same id.
// The new member wins the registry slot; the exported member and its
// lifetime counters are gone from the fleet, which the caller must know
// about rather than discover as silently reset sample counts.
var ErrExportCollision = errors.New("fleet: export rollback collision: id re-registered during export")

// Sanity bounds so a corrupt header fails as ckpt.ErrBadFormat instead of
// demanding an absurd allocation.
const (
	maxLoadMembers = 1 << 20
	maxLoadIDLen   = 1 << 12
)

// EncodeFunc serialises one member's stage and reports the member-kind
// byte recorded alongside it. The fleet container is generic over the
// member type, so the caller supplies the encoding — the public Fleet
// wrapper maps Monitors to kind 0 and Q16.16 stages to kind 1.
type EncodeFunc func(id string, s core.Streaming, w io.Writer) (kind byte, err error)

// DecodeFunc reconstructs one member's stage from its payload, given
// the kind byte its encoder recorded.
// The reader is exactly the member's payload; reading past it fails.
type DecodeFunc func(id string, kind byte, r io.Reader) (core.Streaming, error)

// Save serialises the whole fleet to w in sorted-ID order (so identical
// fleets produce identical bytes). Each member is encoded while holding
// only that member's lock; streams are momentarily unblocked between
// members, so a snapshot taken under load is per-member consistent —
// every member's state is from a sample boundary — rather than a
// whole-fleet stop-the-world cut.
func (f *Fleet) Save(w io.Writer, enc EncodeFunc) error {
	ids := f.IDs()
	cw, err := ckpt.Create(w, magic)
	if err != nil {
		return err
	}
	if err := ckpt.PutU32(cw, uint32(len(ids))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, id := range ids {
		buf.Reset()
		var kind byte
		var cohort string
		var fprint uint64
		inner := ckpt.NewWriter(&buf)
		m, err := f.lockLive(id)
		if err == nil {
			kind, err = enc(id, m.stage, inner)
			cohort, fprint = m.cohort, m.fprint
			m.mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("fleet: save %q: %w", id, err)
		}
		if err := inner.WriteFooter(); err != nil {
			return fmt.Errorf("fleet: save %q: %w", id, err)
		}
		err = putString(cw, id)
		if err == nil {
			_, err = cw.Write([]byte{kind})
		}
		if err == nil {
			err = putString(cw, cohort)
		}
		if err == nil {
			err = ckpt.PutU64(cw, fprint)
		}
		if err == nil {
			err = ckpt.PutU64(cw, uint64(buf.Len()))
		}
		if err == nil {
			_, err = cw.Write(buf.Bytes())
		}
		if err != nil {
			return err
		}
	}
	return cw.WriteFooter()
}

// Load reads a FLEET4 container written by Save and registers every
// member into f via Add (typically f is fresh and empty; a duplicate ID
// fails). Members are registered only once the whole container has
// verified. Any corruption — container or member level — fails with an
// error matching ckpt.ErrBadFormat, naming the damaged member when one
// can be identified.
func (f *Fleet) Load(r io.Reader, dec DecodeFunc) error {
	cr, err := ckpt.Open(r, magic)
	if err != nil {
		return err
	}
	members, err := loadBody(cr, dec)
	if err == nil {
		err = cr.VerifyFooter()
	}
	if err != nil {
		return ckpt.Corrupt("fleet", err)
	}
	for _, m := range members {
		if err := f.AddMember(m.id, m.stage, MemberConfig{Cohort: m.cohort}); err != nil {
			return err
		}
	}
	return nil
}

// loadedMember is one decoded member record awaiting registration.
type loadedMember struct {
	id, cohort string
	stage      core.Streaming
}

// loadBody parses the member records that follow the magic.
func loadBody(r io.Reader, dec DecodeFunc) ([]loadedMember, error) {
	count, err := ckpt.GetU32(r)
	if err != nil {
		return nil, err
	}
	if count > maxLoadMembers {
		return nil, fmt.Errorf("implausible member count %d", count)
	}
	var members []loadedMember
	for i := uint32(0); i < count; i++ {
		m, err := loadMember(r, dec)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// loadMember decodes one member record: ID, kind byte, cohort, saved
// fingerprint and the length-prefixed, checksummed payload.
func loadMember(r io.Reader, dec DecodeFunc) (m loadedMember, err error) {
	if m.id, err = getString(r, 1); err != nil {
		return m, err
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("member %q: %w", m.id, err)
		}
	}()
	var kind [1]byte
	if _, err = io.ReadFull(r, kind[:]); err != nil {
		return m, err
	}
	if m.cohort, err = getString(r, 0); err != nil {
		return m, err
	}
	// The saved fingerprint is folded into the checksum but the live
	// value is re-derived from the decoded stage: the stage's own bits
	// are authoritative, not a label alongside them.
	if _, err = ckpt.GetU64(r); err != nil {
		return m, err
	}
	plen, err := ckpt.GetU64(r)
	if err != nil {
		return m, err
	}
	lim := &io.LimitedReader{R: r, N: int64(plen)}
	if m.stage, err = decodePayload(m.id, kind[0], lim, dec); err == nil && lim.N != 0 {
		err = fmt.Errorf("%d payload bytes left unconsumed", lim.N)
	}
	return m, err
}

// decodePayload decodes one member payload and verifies its own CRC32
// footer.
func decodePayload(id string, kind byte, r io.Reader, dec DecodeFunc) (core.Streaming, error) {
	cr := ckpt.NewReader(r)
	s, err := dec(id, kind, cr)
	if err == nil {
		err = cr.VerifyFooter()
	}
	return s, err
}

// putString writes a u32-length-prefixed string.
func putString(w io.Writer, s string) error {
	if err := ckpt.PutU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// getString reads a u32-length-prefixed string of at least min and at
// most maxLoadIDLen bytes.
func getString(r io.Reader, min uint32) (string, error) {
	n, err := ckpt.GetU32(r)
	if err != nil {
		return "", err
	}
	if n < min || n > maxLoadIDLen {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r, b)
	return string(b), err
}

// MemberState is one exported member: the self-contained checkpoint a
// live migration carries from a source fleet to a target fleet (see
// ExportMember / ImportMember). Payload is a complete member artifact
// with its own CRC32 footer; Kind is the member-kind byte its encoder
// recorded; Cohort is the cooperation group the importing fleet joins
// it to; Samples/Drifts are the lifetime counters the importing fleet
// carries over so the roll-up neither loses nor double-counts.
type MemberState struct {
	ID      string
	Kind    byte
	Cohort  string
	Samples uint64
	Drifts  uint64
	Payload []byte
}

// ExportMember atomically deregisters one member and serialises its
// final state — the source half of a live stream migration. The member
// is deleted from the registry first (new batches fail with
// unknown-stream), then encoded under the member lock after any
// in-flight batch completes, so the payload is a sample-boundary
// snapshot and no sample can land on the member after its export. If
// encoding fails, the member is re-registered and the fleet is
// unchanged.
func (f *Fleet) ExportMember(id string, enc EncodeFunc) (*MemberState, error) {
	m := f.deregister(id)
	if m == nil {
		return nil, fmt.Errorf("fleet: unknown stream %q", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	kind, err := enc(id, m.stage, cw)
	if err == nil {
		err = cw.WriteFooter()
	}
	if err != nil {
		// Roll back: the member must survive a failed export. Taking the
		// shard lock while holding the member lock is safe — no path in
		// this package waits on a member lock while holding a shard lock.
		sh := f.shardOf(id)
		sh.mu.Lock()
		usurper, exists := sh.members[id]
		if !exists {
			sh.members[id] = m
		}
		sh.mu.Unlock()
		if exists {
			// The id was re-registered while the member was out of the
			// registry. The new member keeps the slot — overwriting it
			// would vanish a registration the caller was told succeeded —
			// so the exported member is retired and the collision reported
			// as a typed error: its lifetime counters did not survive.
			m.removed = true
			if m.cohort != "" {
				// Drop the retired member's cohort entry unless the new
				// member re-joined the same cohort (the index is keyed by
				// (cohort, id), so same-cohort removal would orphan the
				// new member from its group). Locking the new member while
				// holding m's lock is safe: m left the registry, so no
				// other path can hold its lock and wait on another member.
				usurper.mu.Lock()
				sameCohort := usurper.cohort == m.cohort
				usurper.mu.Unlock()
				if !sameCohort {
					f.cohortRemove(m.cohort, id)
				}
			}
			return nil, fmt.Errorf("fleet: export %q: %w (samples=%d drifts=%d lost; encode error: %w)",
				id, ErrExportCollision, m.samples, m.drifts, err)
		}
		return nil, fmt.Errorf("fleet: export %q: %w", id, err)
	}
	m.removed = true
	f.cohortRemove(m.cohort, id)
	return &MemberState{ID: id, Kind: kind, Cohort: m.cohort, Samples: m.samples, Drifts: m.drifts, Payload: buf.Bytes()}, nil
}

// ImportMember registers a member from an ExportMember record — the
// target half of a live stream migration. The payload's CRC32 footer is
// verified before registration, and the member starts with the exported
// lifetime counters and cohort so the fleet-level roll-up neither loses
// nor double-counts samples across the move and the stream keeps
// cooperating with its group.
func (f *Fleet) ImportMember(st *MemberState, dec DecodeFunc) error {
	br := bytes.NewReader(st.Payload)
	s, err := decodePayload(st.ID, st.Kind, br, dec)
	if err == nil && br.Len() != 0 {
		err = fmt.Errorf("%d payload bytes left unconsumed", br.Len())
	}
	if err != nil {
		return ckpt.Corrupt("fleet", fmt.Errorf("import %q: %w", st.ID, err))
	}
	return f.addMember(st.ID, s, MemberConfig{Cohort: st.Cohort}, st.Samples, st.Drifts)
}
