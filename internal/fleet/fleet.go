// Package fleet is the multi-stream scheduling layer over the
// single-stream drift pipeline: a sharded, multi-tenant registry of
// independent core.Streaming stages keyed by stream ID. One gateway
// process monitoring hundreds of sensor streams runs one Fleet; each
// member keeps the paper's O(C·D + H²) sequential state and the fleet
// adds only a mutex and two counters per member.
//
// Concurrency model: every member stage is single-threaded by the
// Streaming contract, so the fleet serialises access per member with a
// member mutex and keeps registry lookups cheap with per-shard
// read-write locks. Different streams never contend on the same lock
// (beyond their shard's read lock), which is what makes whole-fleet
// throughput scale with cores; samples of one stream are processed in
// arrival order, which is what keeps per-stream results deterministic.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/oselm"
)

// Event is one drift detection, fanned in from every member onto the
// fleet's single subscriber channel.
type Event struct {
	// StreamID names the member that detected the drift.
	StreamID string
	// Index is the 0-based per-stream sample index of the detection.
	Index int
	// Result is the member's per-sample outcome on that sample.
	Result core.Result
}

// Config parameterises a Fleet.
type Config struct {
	// Shards is the registry shard count; 0 means 8. More shards means
	// less registry-lock contention when members are added and removed
	// concurrently with processing.
	Shards int
	// EventBuffer is the drift-event channel capacity; 0 means 256.
	// Events beyond a full buffer are dropped (and counted) rather than
	// blocking the processing hot path on a slow subscriber.
	EventBuffer int
	// Instrument wraps every member in a core.Instrumented stage at Add
	// time, enabling per-stream counters, the drift-event trace ring and
	// (with SampleEvery > 0) sampled latency timing. Off by default: an
	// uninstrumented fleet adds nothing to the per-sample hot path.
	Instrument bool
	// SampleEvery is the latency-timing period for instrumented members
	// (time one Process call in every SampleEvery). 0 disables timing;
	// counters and traces stay on whenever Instrument is set.
	SampleEvery int
	// TraceDepth bounds each member's drift-trace ring; 0 means 64.
	TraceDepth int
	// WarmRecovery enables drift-triggered cooperative recovery: when a
	// member with a cohort detects drift, the fleet seeds its rebuilding
	// model from the merged state of the cohort's non-drifted,
	// merge-compatible peers (closed-form OS-ELM merge, see oselm.Merge),
	// falling back to the paper's cold reconstruction when no eligible
	// peer exists. Off by default: with it off the fleet is bit-identical
	// to the pre-cooperation behaviour.
	WarmRecovery bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	return c
}

// member is one registered stream: its stage, the lock serialising it,
// and its lifetime counters. removed (guarded by mu) marks a member
// that Remove or ExportMember sealed, so a caller that looked the
// member up before the seal and then won the lock afterwards cannot
// reach a ghost stream (see lockLive).
type member struct {
	mu    sync.Mutex
	stage core.Streaming
	// instr aliases stage when the fleet wrapped it at Add: the batch
	// loop calls the wrapper through this concrete pointer (a static
	// call target) instead of re-dispatching through the interface, so
	// instrumentation costs one direct call, not a second virtual one.
	instr *core.Instrumented
	// merger is the stage's mergeable-state capability, discovered once
	// at Add time through the Instrumented/Hybrid seams (nil for stages
	// that cannot merge, e.g. Q16.16 detect-only members).
	merger core.Merger
	// trans is the stage's precision-transition capability, discovered
	// once at Add time through the same seams (nil for single-precision
	// stages — baselines, the Q16.16 port itself).
	trans core.Transitioner
	// phase reports the stage's detector phase, when it exposes one; the
	// cooperative policies use it to skip mid-reconstruction peers.
	phase func() core.Phase
	// cohort names the member's cooperation group ("" = none) and fprint
	// caches its merge fingerprint, so peer eligibility is an integer
	// compare, not a state export.
	cohort  string
	fprint  uint64
	samples uint64
	drifts  uint64
	removed bool
}

// ErrAlreadyRegistered is the error Add, AddMember, Load and
// ImportMember wrap when the stream ID is already taken.
var ErrAlreadyRegistered = errors.New("already registered")

// shard is one slice of the registry.
type shard struct {
	mu      sync.RWMutex
	members map[string]*member
}

// Fleet is a sharded registry of independently monitored streams. All
// methods are safe for concurrent use; per-stream sample order is the
// caller's responsibility (feed one stream from one goroutine, or batch
// its samples through a single ProcessBatch call).
type Fleet struct {
	cfg    Config
	shards []shard

	events     chan Event
	subscribed atomic.Bool
	dropped    atomic.Uint64

	// cohorts indexes live member IDs by cohort name, under its own
	// mutex (never held together with a member lock).
	cohortMu sync.Mutex
	cohorts  map[string]map[string]struct{}

	// Cooperation counters (see Metrics / Health).
	warmRecoveries atomic.Uint64
	coldFallbacks  atomic.Uint64
	peersSkipped   atomic.Uint64

	// Precision-transition counters (see DemoteMember / PromoteMember).
	demotions          atomic.Uint64
	promotions         atomic.Uint64
	transitionFailures atomic.Uint64

	// regMu serialises registrations, so that two members of one
	// projection registered at once cannot both miss each other (see
	// shareProjection). It is taken before any member or shard lock.
	regMu sync.Mutex
}

// New builds an empty fleet.
func New(cfg Config) *Fleet {
	c := cfg.withDefaults()
	f := &Fleet{
		cfg:     c,
		shards:  make([]shard, c.Shards),
		events:  make(chan Event, c.EventBuffer),
		cohorts: map[string]map[string]struct{}{},
	}
	for i := range f.shards {
		f.shards[i].members = map[string]*member{}
	}
	return f
}

// shardOf routes a stream ID to its shard (FNV-1a, allocation-free).
func (f *Fleet) shardOf(id string) *shard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &f.shards[h%uint32(len(f.shards))]
}

// Add registers a stream. The stage must not be shared with another
// member or used directly afterwards — the fleet owns its schedule.
func (f *Fleet) Add(id string, s core.Streaming) error {
	return f.addMember(id, s, MemberConfig{}, 0, 0)
}

// MemberConfig carries per-member registration options.
type MemberConfig struct {
	// Cohort names the member's cooperation group. Members of one cohort
	// exchange merged model state during warm recovery and anti-entropy;
	// "" (the default) opts the member out of all cooperation. A cohort
	// requires a mergeable stage: registering a detect-only member (the
	// Q16.16 port) into a cohort is rejected loudly, never downgraded.
	Cohort string
}

// AddMember registers a stream with explicit member options.
func (f *Fleet) AddMember(id string, s core.Streaming, mc MemberConfig) error {
	return f.addMember(id, s, mc, 0, 0)
}

// addMember is AddMember with explicit starting lifetime counters — the
// shared registration path of Add (zero counters) and ImportMember
// (counters carried over from the exporting fleet so a migrated
// stream's roll-up neither loses nor double-counts samples).
func (f *Fleet) addMember(id string, s core.Streaming, mc MemberConfig, samples, drifts uint64) error {
	if id == "" {
		return fmt.Errorf("fleet: empty stream ID")
	}
	if s == nil {
		return fmt.Errorf("fleet: stream %q: nil stage", id)
	}
	mb := &member{stage: s, cohort: mc.Cohort, samples: samples, drifts: drifts}
	if f.cfg.Instrument {
		mb.instr = core.NewInstrumented(s, core.InstrumentConfig{
			StreamID:    id,
			SampleEvery: f.cfg.SampleEvery,
			TraceDepth:  f.cfg.TraceDepth,
		})
		mb.stage = mb.instr
	}
	if mg, ok := core.Find[core.Merger](mb.stage); ok {
		mb.merger = mg
		mb.fprint = mg.MergeFingerprint()
	}
	if tr, ok := core.Find[core.Transitioner](mb.stage); ok {
		mb.trans = tr
	}
	if p, ok := mb.stage.(interface{ PhaseNow() core.Phase }); ok {
		mb.phase = p.PhaseNow
	}
	if mc.Cohort != "" && mb.merger == nil {
		return fmt.Errorf("fleet: stream %q: cohort %q requires a mergeable stage (detect-only members cannot cooperate): %w",
			id, mc.Cohort, oselm.ErrMergeIncompatible)
	}
	// The projection is shared before the member becomes visible, so no
	// batch can reach the model while it is rebound, and only when the
	// ID is free, so a refused registration leaves s as it was (the
	// check under the shard lock still catches an ExportMember rollback
	// that re-takes the slot meanwhile).
	f.regMu.Lock()
	defer f.regMu.Unlock()
	sh := f.shardOf(id)
	sh.mu.RLock()
	_, taken := sh.members[id]
	sh.mu.RUnlock()
	if !taken {
		f.shareProjection(mb)
	}
	sh.mu.Lock()
	if _, ok := sh.members[id]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("fleet: stream %q %w", id, ErrAlreadyRegistered)
	}
	sh.members[id] = mb
	sh.mu.Unlock()
	f.cohortAdd(mc.Cohort, id)
	return nil
}

// cohortAdd indexes id under its cohort (no-op for the empty cohort).
func (f *Fleet) cohortAdd(cohort, id string) {
	if cohort == "" {
		return
	}
	f.cohortMu.Lock()
	set := f.cohorts[cohort]
	if set == nil {
		set = map[string]struct{}{}
		f.cohorts[cohort] = set
	}
	set[id] = struct{}{}
	f.cohortMu.Unlock()
}

// cohortRemove drops id from its cohort's index.
func (f *Fleet) cohortRemove(cohort, id string) {
	if cohort == "" {
		return
	}
	f.cohortMu.Lock()
	if set := f.cohorts[cohort]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(f.cohorts, cohort)
		}
	}
	f.cohortMu.Unlock()
}

// Cohort returns the member's cohort name ("" for none).
func (f *Fleet) Cohort(id string) (string, error) {
	m, err := f.lockLive(id)
	if err != nil {
		return "", err
	}
	defer m.mu.Unlock()
	return m.cohort, nil
}

// CohortMembers returns the live member IDs of a cohort, sorted.
func (f *Fleet) CohortMembers(cohort string) []string {
	f.cohortMu.Lock()
	ids := make([]string, 0, len(f.cohorts[cohort]))
	for id := range f.cohorts[cohort] {
		ids = append(ids, id)
	}
	f.cohortMu.Unlock()
	sort.Strings(ids)
	return ids
}

// Remove deregisters a stream, reporting whether it existed and, when
// it did, the member's final lifetime sample and drift counts. Remove
// acquires the member's own lock before returning, so any batch that
// was mid-flight on the member has fully completed — results delivered,
// drift events emitted, counters settled — by the time Remove returns;
// a "removed" stream can never emit another event. Callers that raced a
// lookup against Remove and win the member lock afterwards see the
// removed mark and fail with an unknown-stream error.
func (f *Fleet) Remove(id string) (samples, drifts uint64, ok bool) {
	m := f.deregister(id)
	if m == nil {
		return 0, 0, false
	}
	// Wait out any in-flight batch, then seal the member. The shard lock
	// is already released: a long batch must not block Add/Remove of the
	// shard's other streams.
	m.mu.Lock()
	m.removed = true
	samples, drifts = m.samples, m.drifts
	cohort := m.cohort
	m.mu.Unlock()
	f.cohortRemove(cohort, id)
	return samples, drifts, true
}

// Len returns the registered stream count.
func (f *Fleet) Len() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		n += len(sh.members)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns the registered stream IDs, sorted.
func (f *Fleet) IDs() []string {
	var ids []string
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id := range sh.members {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// lockLive is the one way to reach a registered member: it looks id up
// under the shard's read lock, releases that, and takes the member's
// own lock. It returns the member locked — the caller unlocks — or,
// holding no lock, the unknown-stream error when id is not registered
// or its member was sealed (Remove, ExportMember) between the lookup
// and the lock. That is the sealed-member invariant: once Remove or
// ExportMember has sealed a member, no per-member method reads or
// mutates it again. The found path allocates nothing.
func (f *Fleet) lockLive(id string) (*member, error) {
	sh := f.shardOf(id)
	sh.mu.RLock()
	m, ok := sh.members[id]
	sh.mu.RUnlock()
	if ok {
		m.mu.Lock()
		if !m.removed {
			return m, nil
		}
		m.mu.Unlock()
	}
	return nil, fmt.Errorf("fleet: unknown stream %q", id)
}

// deregister deletes id from the registry and returns its member (nil
// when id is not registered): the first half of Remove and ExportMember,
// which then seal the member under its own lock.
func (f *Fleet) deregister(id string) *member {
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.members[id]
	delete(sh.members, id)
	return m
}

// ProcessBatch feeds a batch of samples to one stream in order and
// returns the per-sample results. Batching amortises the lock: the
// member mutex is taken once per batch, not once per sample.
func (f *Fleet) ProcessBatch(id string, xs [][]float64) ([]core.Result, error) {
	return f.ProcessBatchInto(make([]core.Result, 0, len(xs)), id, xs)
}

// ProcessBatchInto is ProcessBatch appending into dst — the
// allocation-free form for callers that reuse a result buffer across
// batches.
//
// With Config.WarmRecovery set, a batch that detected drift on a
// cohort member triggers the cooperative seed after the batch's results
// are settled and the member lock released (see warmRecover); the
// drift-free path is untouched.
func (f *Fleet) ProcessBatchInto(dst []core.Result, id string, xs [][]float64) ([]core.Result, error) {
	dst, drifted, err := f.processMember(dst, id, xs)
	if err == nil && drifted && f.cfg.WarmRecovery {
		f.warmRecover(id)
	}
	return dst, err
}

// processMember is the locked body of ProcessBatchInto, reporting
// whether any sample in the batch detected drift.
func (f *Fleet) processMember(dst []core.Result, id string, xs [][]float64) ([]core.Result, bool, error) {
	m, err := f.lockLive(id)
	if err != nil {
		return dst, false, err
	}
	defer m.mu.Unlock()
	drifted := false
	for _, x := range xs {
		var r core.Result
		if m.instr != nil {
			r = m.instr.Process(x)
		} else {
			r = m.stage.Process(x)
		}
		idx := m.samples
		m.samples++
		if r.DriftDetected {
			m.drifts++
			drifted = true
			f.emit(Event{StreamID: id, Index: int(idx), Result: r})
		}
		dst = append(dst, r)
	}
	return dst, drifted, nil
}

// warmRecover implements drift-triggered cooperative recovery for one
// just-drifted member: gather merge state from the cohort's eligible
// peers — live, merge-compatible (fingerprint match), and not mid-
// reconstruction (monitoring and checking models are static between
// samples; a rebuilding one is not), so a seed can never observe a
// half-trained peer —
// and seed the drifted member's rebuilding model with their closed-form
// combination. With no eligible peer the member falls back to the
// paper's cold reconstruction, and the fallback is counted, never
// silent. Peer locks are taken one at a time and never nested with the
// target's, so recovery cannot deadlock against concurrent batches,
// Remove, or another member's recovery.
func (f *Fleet) warmRecover(id string) {
	m, err := f.lockLive(id)
	if err != nil {
		return // removed since the batch; nothing to recover
	}
	cohort, fprint, merger := m.cohort, m.fprint, m.merger
	m.mu.Unlock()
	if cohort == "" || merger == nil {
		return
	}

	var states [][]byte
	for _, peerID := range f.CohortMembers(cohort) {
		if peerID == id {
			continue
		}
		p, err := f.lockLive(peerID)
		if err != nil {
			continue // left the cohort since it was listed
		}
		eligible := p.donor() && p.fprint == fprint
		var st []byte
		if eligible {
			st, err = p.merger.ExportMergeState()
		}
		p.mu.Unlock()
		if !eligible || err != nil {
			f.peersSkipped.Add(1)
			continue
		}
		states = append(states, st)
	}
	if len(states) == 0 {
		f.coldFallbacks.Add(1)
		return
	}

	// Re-lock the member itself, not the id: a member re-registered
	// under id meanwhile is not the one these peers were matched to.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.removed {
		f.coldFallbacks.Add(1)
		return
	}
	if err := m.merger.MergeSeed(states); err != nil {
		// Peer state that decoded but failed final validation: count the
		// cold fallback; the member continues its normal reconstruction.
		f.peersSkipped.Add(uint64(len(states)))
		f.coldFallbacks.Add(1)
		return
	}
	f.warmRecoveries.Add(1)
}

// ExportMergeState exports one member's mergeable model state and its
// fingerprint — the cross-shard half of cooperative recovery. The state
// is exported under the member lock (a sample-boundary snapshot) and
// never from a reconstructing member: half-trained state is rejected
// at this mechanism level so no policy above can ship it.
func (f *Fleet) ExportMergeState(id string) ([]byte, uint64, error) {
	m, err := f.lockLive(id)
	if err != nil {
		return nil, 0, err
	}
	defer m.mu.Unlock()
	if !m.donor() {
		if m.merger == nil {
			return nil, 0, errDetectOnly(id)
		}
		return nil, 0, fmt.Errorf("fleet: stream %q is mid-reconstruction; merge state is only exported from a stable model", id)
	}
	st, err := m.merger.ExportMergeState()
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: export merge state %q: %w", id, err)
	}
	return st, m.fprint, nil
}

// MergeSeedMember seeds one member's model with the closed-form
// combination of the given peer states (from ExportMergeState, locally
// or across shards). Incompatible state is rejected loudly and leaves
// the member untouched.
func (f *Fleet) MergeSeedMember(id string, states [][]byte) error {
	m, err := f.lockLive(id)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	if m.merger == nil {
		return errDetectOnly(id)
	}
	if err := m.merger.MergeSeed(states); err != nil {
		return fmt.Errorf("fleet: merge seed %q: %w", id, err)
	}
	return nil
}

// MemberFingerprint returns a member's merge fingerprint (0 when the
// member has no mergeable state).
func (f *Fleet) MemberFingerprint(id string) (uint64, error) {
	m, err := f.lockLive(id)
	if err != nil {
		return 0, err
	}
	defer m.mu.Unlock()
	return m.fprint, nil
}

// donor reports the one cooperative-merge eligibility rule: the member
// has mergeable state and is not mid-reconstruction (monitoring and
// checking models are static between samples; a rebuilding one is
// not). A stage that reports no phase has no reconstruction to be in
// the middle of. Liveness is lockLive's, and the fingerprint match is
// the caller's, since each caller compares against a different
// reference. The caller holds m.mu.
func (m *member) donor() bool {
	return m.merger != nil && (m.phase == nil || m.phase() != core.Reconstructing)
}

// errDetectOnly is the error a merge operation on a member without
// mergeable state fails with.
func errDetectOnly(id string) error {
	return fmt.Errorf("fleet: stream %q: %w", id,
		&oselm.MergeError{Reason: "member has no mergeable state (detect-only stage)"})
}

// DemoteMember switches one member to a cheaper numeric backend at
// runtime (see core.Transitioner: the full-precision state is retained,
// so the matching PromoteMember is bit-exact). The transition runs under
// the member lock — at a sample boundary, like every other member
// mutation — and is stamped into the member's trace ring when the fleet
// is instrumented. Members without the transition capability (baseline
// detectors, the Q16.16 port) and invalid transitions fail loudly and
// count as TransitionFailures.
func (f *Fleet) DemoteMember(id string, p oselm.Precision) error {
	return f.transition(id, "demote", &f.demotions, func(t core.Transitioner) error { return t.Demote(p) })
}

// PromoteMember drops a demoted member's reduced-precision twin and
// resumes its retained full-precision origin bit-exactly from the
// demotion instant (samples served while demoted advanced only the
// twin). Same locking, stamping and failure accounting as DemoteMember.
func (f *Fleet) PromoteMember(id string) error {
	return f.transition(id, "promote", &f.promotions, core.Transitioner.Promote)
}

// transition is the one body of DemoteMember and PromoteMember: act
// runs under the member lock, a success counts in done and is stamped
// "<verb>:<active precision>" into an instrumented member's trace ring,
// and every failure — unknown stream included — counts one
// TransitionFailures.
func (f *Fleet) transition(id, verb string, done *atomic.Uint64, act func(core.Transitioner) error) error {
	m, err := f.lockLive(id)
	if err == nil {
		defer m.mu.Unlock()
		if m.trans == nil {
			err = fmt.Errorf("fleet: stream %q has no precision-transition capability", id)
		} else if err = act(m.trans); err != nil {
			err = fmt.Errorf("fleet: %s %q: %w", verb, id, err)
		}
	}
	if err != nil {
		f.transitionFailures.Add(1)
		return err
	}
	done.Add(1)
	if m.instr != nil {
		m.instr.Stamp(verb + ":" + m.trans.ActivePrecision().String())
	}
	return nil
}

// MemberPrecision reports one member's transition state: whether it is
// currently demoted and the precision samples are processed at. Members
// without the capability report (false, Float64-zero-value) with ok
// false.
func (f *Fleet) MemberPrecision(id string) (degraded bool, active oselm.Precision, ok bool, err error) {
	m, err := f.lockLive(id)
	if err != nil {
		return false, 0, false, err
	}
	defer m.mu.Unlock()
	if m.trans == nil {
		return false, 0, false, nil
	}
	return m.trans.Degraded(), m.trans.ActivePrecision(), true, nil
}

// AntiEntropy runs one periodic cooperative merge round over a cohort:
// every live, stable (not reconstructing), mutually compatible member contributes its
// state, and each such member is re-seeded with the closed-form
// combination of all contributions (its own included, so its evidence
// is kept). Members mid-reconstruction or fingerprint-mismatched are
// skipped and counted. It returns how many members were seeded.
func (f *Fleet) AntiEntropy(cohort string) (int, error) {
	ids := f.CohortMembers(cohort)
	if len(ids) == 0 {
		return 0, fmt.Errorf("fleet: unknown or empty cohort %q", cohort)
	}
	var (
		states  [][]byte
		donors  []string
		fprint  uint64
		haveRef bool
	)
	for _, id := range ids {
		m, err := f.lockLive(id)
		if err != nil {
			continue // left the cohort since it was listed
		}
		ok := m.donor() && (!haveRef || m.fprint == fprint)
		var st []byte
		if ok {
			st, err = m.merger.ExportMergeState()
			ok = err == nil
		}
		if ok && !haveRef {
			fprint, haveRef = m.fprint, true
		}
		m.mu.Unlock()
		if !ok {
			f.peersSkipped.Add(1)
			continue
		}
		states = append(states, st)
		donors = append(donors, id)
	}
	if len(states) < 2 {
		return 0, fmt.Errorf("fleet: cohort %q has %d mergeable member(s); anti-entropy needs 2", cohort, len(states))
	}
	seeded := 0
	for _, id := range donors {
		if err := f.MergeSeedMember(id, states); err != nil {
			f.peersSkipped.Add(1)
			continue
		}
		seeded++
	}
	return seeded, nil
}

// Subscribe arms drift-event delivery and returns the fleet's single
// event channel. Events are fanned in from every member; when the
// buffer is full an event is dropped and counted rather than stalling
// processing (see EventsDropped). Before the first Subscribe call no
// events are buffered at all.
func (f *Fleet) Subscribe() <-chan Event {
	f.subscribed.Store(true)
	return f.events
}

// EventsDropped returns how many drift events were discarded because
// the subscriber channel was full.
func (f *Fleet) EventsDropped() uint64 { return f.dropped.Load() }

func (f *Fleet) emit(ev Event) {
	if !f.subscribed.Load() {
		return
	}
	select {
	case f.events <- ev:
	default:
		f.dropped.Add(1)
	}
}

// Do runs fn against one member's stage while holding that member's
// lock — the safe way to inspect or checkpoint a single stream while
// the rest of the fleet keeps processing.
func (f *Fleet) Do(id string, fn func(core.Streaming) error) error {
	m, err := f.lockLive(id)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	return fn(m.stage)
}

// MemberStats returns one stream's lifetime sample and drift counts.
func (f *Fleet) MemberStats(id string) (samples, drifts uint64, err error) {
	m, err := f.lockLive(id)
	if err != nil {
		return 0, 0, err
	}
	defer m.mu.Unlock()
	return m.samples, m.drifts, nil
}

// Health rolls every member's snapshot up into one fleet-level snapshot
// (see health.Aggregate for the semantics: counters sum, PFinite ANDs,
// score summaries pool). The fleet's own cooperation counters — warm
// recoveries and cold fallbacks are a fleet policy, invisible to any
// single member — are added onto the aggregate.
func (f *Fleet) Health() health.Snapshot {
	var snaps []health.Snapshot
	f.eachMember(func(id string, m *member) {
		snaps = append(snaps, m.stage.Health())
	})
	agg := health.Aggregate(snaps)
	agg.WarmRecoveries += f.warmRecoveries.Load()
	agg.ColdFallbacks += f.coldFallbacks.Load()
	return agg
}

// StartAntiEntropy launches the optional periodic anti-entropy policy:
// every interval, each cohort with ≥ 2 mergeable members is merged (see
// AntiEntropy). It returns a stop function; stopping waits for an
// in-flight round to finish. Round errors (e.g. a cohort momentarily
// mid-reconstruction everywhere) are expected and skipped — the next
// tick retries.
func (f *Fleet) StartAntiEntropy(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f.cohortMu.Lock()
				cohorts := make([]string, 0, len(f.cohorts))
				for c := range f.cohorts {
					cohorts = append(cohorts, c)
				}
				f.cohortMu.Unlock()
				sort.Strings(cohorts)
				for _, c := range cohorts {
					_, _ = f.AntiEntropy(c)
				}
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// StreamMetrics is one member's contribution to the fleet roll-up.
type StreamMetrics struct {
	// Samples and Drifts are the fleet's lifetime counters for the
	// member (identical to MemberStats).
	Samples uint64
	Drifts  uint64
	// Stage carries the member's instrumentation snapshot when the fleet
	// was built with Config.Instrument; nil otherwise.
	Stage *core.StageMetrics
	// Degraded reports whether the member is currently demoted, and
	// ActivePrecision names the backend its samples are processed at
	// ("" for members without the transition capability).
	Degraded        bool
	ActivePrecision string
}

// Metrics is the fleet-level metrics roll-up: whole-fleet totals plus
// the per-stream breakdown, the exposition layer's one-stop source.
type Metrics struct {
	// Streams is the registered member count.
	Streams int
	// Samples and Drifts sum every member's lifetime counters.
	Samples uint64
	Drifts  uint64
	// EventsDropped counts drift events discarded on a full subscriber
	// buffer.
	EventsDropped uint64
	// WarmRecoveries and ColdFallbacks count drift responses under the
	// cooperative policy: seeds applied from cohort peers vs. falls back
	// to cold reconstruction for want of an eligible peer. PeersSkipped
	// counts cohort peers passed over during recovery or anti-entropy
	// (mid-reconstruction, fingerprint mismatch, or export failure).
	WarmRecoveries uint64
	ColdFallbacks  uint64
	PeersSkipped   uint64
	// Degraded counts members currently running demoted; Demotions,
	// Promotions and TransitionFailures are the lifetime transition
	// counters (see DemoteMember / PromoteMember).
	Degraded           int
	Demotions          uint64
	Promotions         uint64
	TransitionFailures uint64
	// MemoryBytes is the whole-fleet retained-state audit.
	MemoryBytes int
	// SharedStreams counts members that still share their template's
	// learned state (see oselm.Model.Clone): each takes a private copy at
	// its first reconstruction, merge seed or adopt, so memory rises as
	// this falls.
	SharedStreams int
	// PerStream holds each member's counters keyed by stream ID.
	PerStream map[string]StreamMetrics
}

// Metrics rolls every member's counters up into one fleet-level
// snapshot, the counterpart of Health for throughput and event
// accounting. Each member is visited under its own lock, so a snapshot
// taken under load is per-member consistent.
func (f *Fleet) Metrics() Metrics {
	m := Metrics{PerStream: make(map[string]StreamMetrics, f.Len())}
	var audit memoryAudit
	f.eachMember(func(id string, mb *member) {
		sm := StreamMetrics{Samples: mb.samples, Drifts: mb.drifts}
		if mb.instr != nil {
			stage := mb.instr.Metrics()
			sm.Stage = &stage
		}
		if mb.trans != nil {
			sm.Degraded = mb.trans.Degraded()
			sm.ActivePrecision = mb.trans.ActivePrecision().String()
			if sm.Degraded {
				m.Degraded++
			}
		}
		audit.add(id, mb)
		m.Streams++
		m.Samples += sm.Samples
		m.Drifts += sm.Drifts
		m.PerStream[id] = sm
	})
	m.MemoryBytes, m.SharedStreams = audit.bytes, audit.streams
	m.EventsDropped = f.dropped.Load()
	m.WarmRecoveries = f.warmRecoveries.Load()
	m.ColdFallbacks = f.coldFallbacks.Load()
	m.PeersSkipped = f.peersSkipped.Load()
	m.Demotions = f.demotions.Load()
	m.Promotions = f.promotions.Load()
	m.TransitionFailures = f.transitionFailures.Load()
	return m
}

// Traces returns each instrumented member's retained drift trace,
// keyed by stream ID (members without instrumentation are absent).
// Each ring is read under its member's lock.
func (f *Fleet) Traces() map[string][]core.TraceEvent {
	out := map[string][]core.TraceEvent{}
	f.eachMember(func(id string, mb *member) {
		if mb.instr != nil {
			out[id] = mb.instr.Trace()
		}
	})
	return out
}

// MemberHealth returns each stream's own snapshot, keyed by ID.
func (f *Fleet) MemberHealth() map[string]health.Snapshot {
	out := make(map[string]health.Snapshot, f.Len())
	f.eachMember(func(id string, m *member) {
		out[id] = m.stage.Health()
	})
	return out
}

// memberOverheadBytes is the registry's own cost per member beyond the
// stage's audit and the ID/cohort bytes (charged as len(id) +
// len(cohort)): the member struct, the map's *member value and the
// string header of the map key. It is taken from the target's own
// layout (144 bytes on 64-bit targets, 88 on 32-bit ones), so it
// cannot rot when the struct changes.
const memberOverheadBytes = int(unsafe.Sizeof(member{}) + unsafe.Sizeof((*member)(nil)) + unsafe.Sizeof(""))

// memberBytes is one member's share of the audit: its stage's own
// state (which leaves out shared projections and shared learned state),
// its ID and cohort bytes, and the registry overhead.
func memberBytes(id string, m *member) int {
	return m.stage.MemoryBytes() + len(id) + len(m.cohort) + memberOverheadBytes
}

// MemoryBytes audits the whole fleet's retained state: the sum of every
// member's audit plus the registry's own per-member overhead, plus the
// slabs members hold in common — projections, and the learned state and
// trained centroids clones still share with their template — each slab
// counted once (see memoryAudit).
func (f *Fleet) MemoryBytes() int {
	var audit memoryAudit
	f.eachMember(audit.add)
	return audit.bytes
}

// eachMember visits every live member under that member's own lock —
// never while holding a shard lock. The member set is snapshotted under
// each shard's read lock first and the shard lock released before any
// member lock is taken, so a visitor stalled behind one member's long
// batch (a /metrics or Health scrape, say) cannot block Add/Remove on
// that shard. Members removed between snapshot and visit are skipped.
// The visit order is unspecified; callers needing determinism sort by
// ID.
func (f *Fleet) eachMember(fn func(id string, m *member)) {
	type entry struct {
		id string
		m  *member
	}
	snap := make([]entry, 0, 64)
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id, m := range sh.members {
			snap = append(snap, entry{id, m})
		}
		sh.mu.RUnlock()
	}
	for _, e := range snap {
		e.m.mu.Lock()
		if !e.m.removed {
			fn(e.id, e.m)
		}
		e.m.mu.Unlock()
	}
}
