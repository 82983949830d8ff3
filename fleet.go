package edgedrift

import (
	"fmt"
	"io"
	"os"
	"time"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
	"edgedrift/internal/fixed"
	"edgedrift/internal/fleet"
	"edgedrift/internal/oselm"
)

// FleetConfig configures a Fleet: registry shard count, the
// drift-event buffer size and optional instrumentation. The zero value
// is ready to use (8 shards, 256 buffered events).
type FleetConfig = fleet.Config

// FleetEvent is one drift detection, fanned in from every member stream
// onto the fleet's single subscriber channel (see Fleet.Events).
type FleetEvent = fleet.Event

// FleetMetrics is the fleet-level metrics roll-up (see Fleet.Metrics).
type FleetMetrics = fleet.Metrics

// StreamMetrics is one stream's contribution to the fleet roll-up.
type StreamMetrics = fleet.StreamMetrics

// StageMetrics is an instrumented stage's counter snapshot.
type StageMetrics = core.StageMetrics

// TraceEvent is one retained drift detection in an instrumented
// stream's bounded trace ring: stream ID, sample index, score and the
// θ_error in force at detection time.
type TraceEvent = core.TraceEvent

// Streaming is the composable per-sample stage contract every detector
// in this repository satisfies (see the core package). Monitors, their
// Q16.16 ports (Monitor.QuantizeQ16) and custom stages all implement
// it, and a Fleet can host any mix of them via AddStage.
type Streaming = core.Streaming

// Fleet monitors many independent streams at once: a sharded,
// multi-tenant registry of Monitors keyed by stream ID. A Monitor alone
// is the single-stream special case — one state machine, one goroutine;
// the Fleet is the concurrent entry point, serialising access per
// member so that distinct streams scale across cores while each
// stream's results stay deterministic and bit-identical to running its
// Monitor alone.
type Fleet struct {
	f *fleet.Fleet
}

// NewFleet builds an empty fleet.
func NewFleet(cfg FleetConfig) *Fleet {
	return &Fleet{f: fleet.New(cfg)}
}

// Add registers a fitted monitor under a stream ID. The fleet owns the
// monitor from here on: drive the stream through ProcessBatch, not
// through the monitor directly.
func (f *Fleet) Add(id string, mon *Monitor) error {
	return f.AddCohort(id, mon, "")
}

// AddCohort registers a fitted monitor into a cooperation cohort.
// Members of one cohort exchange merged model state: with
// FleetConfig.WarmRecovery set, a drifted member's rebuilding model is
// seeded from the closed-form combination of its non-drifted cohort
// peers' state, and Fleet.AntiEntropy periodically reconciles the whole
// group. Cohort peers must be merge-compatible — built from the same
// Options (shape, precision, RLS constants) and the same Seed, so their
// random projections are bit-identical; incompatible peers are detected
// by fingerprint and skipped loudly, never merged. An empty cohort is
// plain Add.
func (f *Fleet) AddCohort(id string, mon *Monitor, cohort string) error {
	if mon == nil {
		return fmt.Errorf("edgedrift: fleet add %q: nil monitor", id)
	}
	if !mon.fit {
		return fmt.Errorf("edgedrift: fleet add %q: monitor not fitted", id)
	}
	return f.f.AddMember(id, mon, fleet.MemberConfig{Cohort: cohort})
}

// AddStage registers any streaming stage — e.g. the fixed-point port
// from Monitor.QuantizeQ16 — under a stream ID, letting one fleet host
// members at different numeric precisions side by side. Stage members
// are processed, health-aggregated and metered like Monitors, but the
// Monitor-specific surfaces (Do, Save) report them as non-Monitor
// members.
func (f *Fleet) AddStage(id string, s Streaming) error {
	if s == nil {
		return fmt.Errorf("edgedrift: fleet add %q: nil stage", id)
	}
	return f.f.Add(id, s)
}

// Remove deregisters a stream, reporting whether it existed and, when
// it did, the stream's final lifetime sample and drift counts. Remove
// waits out any batch mid-flight on the member before returning, so a
// removed stream can never emit another drift event.
func (f *Fleet) Remove(id string) (samples, drifts uint64, ok bool) { return f.f.Remove(id) }

// Len returns the registered stream count.
func (f *Fleet) Len() int { return f.f.Len() }

// IDs returns the registered stream IDs, sorted.
func (f *Fleet) IDs() []string { return f.f.IDs() }

// ProcessBatch feeds a batch of samples to one stream in order and
// returns the per-sample results. Safe to call concurrently for
// different streams; one stream's samples must arrive from one caller
// at a time for its order to be meaningful.
func (f *Fleet) ProcessBatch(id string, xs [][]float64) ([]Result, error) {
	return f.f.ProcessBatch(id, xs)
}

// ProcessBatchInto is ProcessBatch appending into dst — the
// allocation-free form for callers that reuse a result buffer.
func (f *Fleet) ProcessBatchInto(dst []Result, id string, xs [][]float64) ([]Result, error) {
	return f.f.ProcessBatchInto(dst, id, xs)
}

// Events arms drift-event delivery and returns the fleet's single
// subscriber channel. When the buffer is full, events are dropped and
// counted (EventsDropped) rather than stalling the processing path.
func (f *Fleet) Events() <-chan FleetEvent { return f.f.Subscribe() }

// EventsDropped returns how many drift events were discarded because
// the subscriber channel was full.
func (f *Fleet) EventsDropped() uint64 { return f.f.EventsDropped() }

// Health rolls every member's snapshot up into one fleet-level
// snapshot: counters sum, PFinite ANDs (one diverged member makes the
// fleet unhealthy), score summaries pool, and the phase reports the
// most operationally active member.
func (f *Fleet) Health() HealthSnapshot { return f.f.Health() }

// MemberHealth returns each stream's own snapshot, keyed by ID.
func (f *Fleet) MemberHealth() map[string]HealthSnapshot { return f.f.MemberHealth() }

// MemberStats returns one stream's lifetime sample and drift counts.
func (f *Fleet) MemberStats(id string) (samples, drifts uint64, err error) {
	return f.f.MemberStats(id)
}

// Metrics rolls every member's counters up into one fleet-level
// snapshot — whole-fleet sample/drift totals, dropped-event count, the
// memory audit and the per-stream breakdown. With FleetConfig.Instrument
// set, each stream also carries its stage instrumentation (phase
// transitions, sampled latency histogram).
func (f *Fleet) Metrics() FleetMetrics { return f.f.Metrics() }

// Traces returns each instrumented stream's retained drift trace (the
// last TraceDepth detections), keyed by stream ID. Empty unless the
// fleet was built with FleetConfig.Instrument.
func (f *Fleet) Traces() map[string][]TraceEvent { return f.f.Traces() }

// MemoryBytes audits the whole fleet's retained state.
func (f *Fleet) MemoryBytes() int { return f.f.MemoryBytes() }

// Cohort returns a member's cooperation cohort ("" when it has none).
func (f *Fleet) Cohort(id string) (string, error) { return f.f.Cohort(id) }

// CohortMembers returns the live member IDs of a cohort, sorted.
func (f *Fleet) CohortMembers(cohort string) []string { return f.f.CohortMembers(cohort) }

// ExportMergeState exports one member's mergeable model state and its
// compatibility fingerprint without deregistering it — the unit a
// cooperative recovery ships between fleets (or shards). Only a stable
// member exports: mid-reconstruction state is rejected.
func (f *Fleet) ExportMergeState(id string) (state []byte, fingerprint uint64, err error) {
	return f.f.ExportMergeState(id)
}

// MergeSeedMember replaces one member's model state with the
// closed-form combination of the given peer states (from
// ExportMergeState on merge-compatible members). Incompatible state is
// rejected with an error wrapping ErrMergeIncompatible and leaves the
// member untouched.
func (f *Fleet) MergeSeedMember(id string, states [][]byte) error {
	return f.f.MergeSeedMember(id, states)
}

// MemberFingerprint returns a member's merge-compatibility fingerprint
// (0 for members without mergeable state).
func (f *Fleet) MemberFingerprint(id string) (uint64, error) { return f.f.MemberFingerprint(id) }

// AntiEntropy runs one cooperative merge round over a cohort: every
// live, stable, mutually compatible member contributes its state
// and is re-seeded with the combination of all contributions. It
// returns how many members were seeded.
func (f *Fleet) AntiEntropy(cohort string) (int, error) { return f.f.AntiEntropy(cohort) }

// StartAntiEntropy launches the periodic anti-entropy policy over every
// cohort; the returned stop function halts it and waits for an
// in-flight round.
func (f *Fleet) StartAntiEntropy(interval time.Duration) (stop func()) {
	return f.f.StartAntiEntropy(interval)
}

// DemoteMember switches one member to a cheaper active precision under
// the member's lock (see Monitor.Demote for the transition lattice and
// retention semantics). The transition is stamped into the member's
// trace ring when the fleet is instrumented, and counted in the
// fleet-level Demotions/TransitionFailures roll-up.
func (f *Fleet) DemoteMember(id string, target Precision) error {
	return f.f.DemoteMember(id, target)
}

// PromoteMember restores one member to its retained full-precision
// origin, bit-exactly (see Monitor.Promote).
func (f *Fleet) PromoteMember(id string) error { return f.f.PromoteMember(id) }

// MemberPrecision reports one member's capacity state: whether it is
// currently demoted, the precision actually serving its samples, and
// whether the member supports transitions at all (q16-native stages and
// custom stages do not).
func (f *Fleet) MemberPrecision(id string) (degraded bool, active Precision, capable bool, err error) {
	return f.f.MemberPrecision(id)
}

// unwrap recovers the T (a *Monitor or a *fixed.Monitor) inside a
// member stage, seeing through the Instrumented wrapper an instrumented
// fleet adds at registration. It deliberately sees through nothing else
// (so not core.Find): a serialiser that looked through a Hybrid or a
// pool.Stage would save the Monitor and silently drop the wrapper.
func unwrap[T core.Streaming](s core.Streaming) (T, bool) {
	for {
		if t, ok := s.(T); ok {
			return t, true
		}
		in, ok := s.(*core.Instrumented)
		if !ok {
			var zero T
			return zero, false
		}
		s = in.Inner()
	}
}

// Member-kind bytes recorded per member in the FLEET4 container and in
// ExportMember payloads: the discriminator that lets mixed-precision
// fleets round-trip (satellite of the distributed tier — a shard must
// be able to checkpoint and migrate q16 members like any other).
const (
	memberKindMonitor = 0 // float Monitor, OSELM3 artifact (at the fleet's save precision)
	memberKindQ16     = 1 // fixed.Monitor, QFIX01 artifact
	// memberKindDegraded (FLEET4) is a demoted Monitor: one byte naming
	// the twin's precision, the retained full-precision origin at its
	// own training precision (exactness is the whole point of
	// retention), then the active twin — an f32 Monitor serialised at
	// the f64 wire (the f32 wire truncates the RLS state; widening
	// f32 state onto the f64 wire is exact, so the twin round-trips
	// bit-identically) or a Q16.16 stage in its exact integer format.
	memberKindDegraded = 2
)

// encodeMember serialises one member stage with its kind byte. A float
// Monitor is written at prec(mon), read from the very Monitor being
// encoded; the Q16.16 wire format is exact and takes no precision.
func encodeMember(prec func(*Monitor) Precision) fleet.EncodeFunc {
	return func(id string, s core.Streaming, w io.Writer) (byte, error) {
		if mon, ok := unwrap[*Monitor](s); ok {
			if mon.degraded != nil {
				return memberKindDegraded, encodeDegraded(mon, w)
			}
			return memberKindMonitor, mon.Save(w, prec(mon))
		}
		if fs, ok := unwrap[*fixed.Monitor](s); ok {
			return memberKindQ16, fs.Save(w)
		}
		return 0, fmt.Errorf("edgedrift: fleet member %q has no wire format (not a Monitor or Q16.16 stage)", id)
	}
}

// encodeDegraded writes a demoted member: [twin-precision byte][origin
// artifact at origin precision][twin artifact]. Both artifacts are
// self-delimiting (their own magic + CRC footers), so no lengths are
// needed.
func encodeDegraded(mon *Monitor, w io.Writer) error {
	active := mon.ActivePrecision()
	if _, err := w.Write([]byte{byte(active)}); err != nil {
		return err
	}
	if err := mon.Save(w, mon.opts.Precision); err != nil {
		return err
	}
	switch t := mon.degraded.(type) {
	case *Monitor:
		// The f32 wire truncates the RLS conditioning state; the f64 wire
		// widens the twin's f32 slabs exactly, so this — not the twin's
		// own precision — is the lossless encoding.
		return t.Save(w, Float64)
	case *fixed.Monitor:
		return t.Save(w)
	default:
		return fmt.Errorf("edgedrift: degraded twin %T has no wire format", mon.degraded)
	}
}

// decodeMember returns the decoder of member stages for f: each stage
// is reconstructed from its kind byte, and every float64 projection is
// read through one oselm.Projections, so the members of one load, and a
// member joining live peers, allocate W and b only for a projection no
// decoded or registered member holds yet.
func (f *Fleet) decodeMember() fleet.DecodeFunc {
	p := &oselm.Projections{Share: f.f.ShareProjection}
	return func(id string, kind byte, r io.Reader) (core.Streaming, error) {
		return decodeMember(id, kind, r, p)
	}
}

// decodeMember reconstructs one member stage from its kind byte, reading
// its projections through p.
func decodeMember(id string, kind byte, r io.Reader, p *oselm.Projections) (core.Streaming, error) {
	switch kind {
	case memberKindMonitor:
		return loadMonitor(r, p)
	case memberKindQ16:
		return fixed.LoadMonitor(r)
	case memberKindDegraded:
		var ab [1]byte
		if _, err := io.ReadFull(r, ab[:]); err != nil {
			return nil, fmt.Errorf("edgedrift: fleet member %q: degraded header: %w", id, err)
		}
		mon, err := loadMonitor(r, p)
		if err != nil {
			return nil, fmt.Errorf("edgedrift: fleet member %q: degraded origin: %w", id, err)
		}
		var twin core.Streaming
		switch Precision(ab[0]) {
		case Float32:
			twin, err = LoadMonitor(r)
		case Fixed16:
			twin, err = fixed.LoadMonitor(r)
		default:
			return nil, fmt.Errorf("edgedrift: fleet member %q: implausible twin precision byte %d", id, ab[0])
		}
		if err != nil {
			return nil, fmt.Errorf("edgedrift: fleet member %q: degraded twin: %w", id, err)
		}
		if err := mon.adoptDegraded(twin); err != nil {
			return nil, fmt.Errorf("edgedrift: fleet member %q: %w", id, err)
		}
		return mon, nil
	default:
		return nil, fmt.Errorf("edgedrift: fleet member %q: unknown member kind %d", id, kind)
	}
}

// Do runs fn against one member while holding that member's lock — the
// safe way to inspect a single stream while the fleet keeps processing.
func (f *Fleet) Do(id string, fn func(*Monitor) error) error {
	return f.f.Do(id, func(s core.Streaming) error {
		mon, ok := unwrap[*Monitor](s)
		if !ok {
			return fmt.Errorf("edgedrift: fleet member %q is not a Monitor", id)
		}
		return fn(mon)
	})
}

// Save serialises the whole fleet in sorted-ID order: a FLEET4
// container in which every member is a complete artifact with its own
// CRC32 footer — float Monitors at prec, Q16.16 stages in their exact
// integer format, demoted members as retained origin plus active twin —
// covered again by a container-level footer. Corruption fails loudly at
// load, naming the damaged member.
func (f *Fleet) Save(w io.Writer, prec Precision) error {
	return f.f.Save(w, encodeMember(func(*Monitor) Precision { return prec }))
}

// SaveFile atomically writes the fleet artifact to path (temp file,
// sync, rename — the same crash-safety contract as Monitor.SaveFile).
func (f *Fleet) SaveFile(path string, prec Precision) error {
	return ckpt.WriteFileAtomic(path, func(w io.Writer) error { return f.Save(w, prec) })
}

// LoadFleet deserialises a FLEET4 fleet written by Save. Every member —
// including demoted members, which resume at their reduced precision
// with the origin retained — is immediately ready to Process.
// Corruption — container or member level — and fleets saved before
// FLEET4 fail with an error matching ErrBadFormat.
func LoadFleet(r io.Reader, cfg FleetConfig) (*Fleet, error) {
	fl := NewFleet(cfg)
	if err := fl.f.Load(r, fl.decodeMember()); err != nil {
		return nil, err
	}
	return fl, nil
}

// LoadFleetFile deserialises a fleet artifact written by SaveFile.
func LoadFleetFile(path string, cfg FleetConfig) (*Fleet, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgedrift: load %s: %w", path, err)
	}
	defer fh.Close()
	fl, err := LoadFleet(fh, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return fl, nil
}

// MemberState is one exported member: the self-contained checkpoint a
// live migration carries from a source fleet to a target fleet (see
// Fleet.ExportMember / Fleet.ImportMember). Payload is a complete
// member artifact with its own CRC32 footer; Kind discriminates the
// encoding; Samples/Drifts are the lifetime counters the importing
// fleet carries over so the roll-up neither loses nor double-counts.
type MemberState = fleet.MemberState

// ExportMember atomically deregisters one member and returns its
// serialised state — the source half of a live stream migration. The
// member is removed from the registry first, then encoded after any
// in-flight batch completes, so the payload is a sample-boundary
// snapshot and no sample can land on the source after its export.
// Float members export at their own training precision (exactness is
// what makes the continuation bit-identical); q16 members export in
// their exact integer format. A failed export leaves the fleet
// unchanged.
func (f *Fleet) ExportMember(id string) (*MemberState, error) {
	return f.f.ExportMember(id, encodeMember(func(mon *Monitor) Precision { return mon.opts.Precision }))
}

// ImportMember registers a member exported from another fleet — the
// target half of a live stream migration. The payload's checksum is
// verified before registration; corruption fails with ErrBadFormat and
// registers nothing.
func (f *Fleet) ImportMember(st *MemberState) error {
	if st == nil {
		return fmt.Errorf("edgedrift: import: nil member state")
	}
	return f.f.ImportMember(st, f.decodeMember())
}

// ErrAlreadyRegistered is re-exported so callers can tell a taken
// stream ID from other registration failures: Add, AddCohort, AddStage
// and ImportMember wrap it when the ID is already registered.
var ErrAlreadyRegistered = fleet.ErrAlreadyRegistered

// ErrMergeIncompatible is re-exported so callers can classify merge
// rejections (see the oselm package): shape/precision/seed-topology
// mismatches and detect-only members all wrap it.
var ErrMergeIncompatible = oselm.ErrMergeIncompatible
