package edgedrift

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"edgedrift/internal/metrics"
)

// WriteMetrics renders the fleet's metrics and health roll-up in the
// Prometheus text exposition format (0.0.4): whole-fleet totals, the
// health-snapshot counters and gauges, and a per-stream breakdown
// labelled by stream ID. Instrumented fleets (FleetConfig.Instrument)
// additionally expose per-stream phase counters and the sampled
// process-latency histogram in seconds.
//
// Exposition runs on the scrape path: each member is visited briefly
// under its own lock, never stalling the whole fleet, and the output is
// deterministic (streams sorted by ID) so scrapes diff cleanly.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	m := f.Metrics()
	h := f.Health()
	tw := metrics.NewTextWriter(w)

	tw.Gauge("edgedrift_streams", "Registered member streams.", nil, float64(m.Streams))
	tw.Counter("edgedrift_samples_total", "Samples processed across all streams.", nil, m.Samples)
	tw.Counter("edgedrift_drifts_total", "Drift detections across all streams.", nil, m.Drifts)
	tw.Counter("edgedrift_events_dropped_total", "Drift events dropped on a full subscriber buffer.", nil, m.EventsDropped)
	tw.Gauge("edgedrift_memory_bytes", "Retained state of the whole fleet (registry overhead included).", nil, float64(m.MemoryBytes))
	tw.Gauge("edgedrift_shared_streams", "Members still sharing their template's learned state; each takes a private copy at its first reconstruction, merge seed or adopt.", nil, float64(m.SharedStreams))

	// Adaptive capacity: the precision-lifecycle roll-up.
	tw.Gauge("edgedrift_degraded_streams", "Members currently demoted to a reduced precision.", nil, float64(m.Degraded))
	tw.Counter("edgedrift_demotions_total", "Member demotions to a reduced precision.", nil, m.Demotions)
	tw.Counter("edgedrift_promotions_total", "Member promotions back to the retained full-precision origin.", nil, m.Promotions)
	tw.Counter("edgedrift_transition_failures_total", "Refused or failed precision transitions.", nil, m.TransitionFailures)

	// Health roll-up: the same numbers Snapshot.String() logs, scrapable.
	tw.Counter("edgedrift_rejected_total", "Samples refused by the ingestion guard.", nil, h.Rejected)
	tw.Counter("edgedrift_clamped_total", "Samples repaired by the ingestion guard.", nil, h.Clamped)
	tw.Counter("edgedrift_model_divergences_total", "Non-finite scores on finite input (model divergence rebuilds).", nil, h.ModelDivergences)
	tw.Counter("edgedrift_watchdog_resets_total", "RLS watchdog P-matrix re-initialisations.", nil, h.WatchdogResets)
	tw.Counter("edgedrift_merges_total", "Closed-form state merges applied to member models.", nil, h.Merges)
	tw.Counter("edgedrift_warm_recoveries_total", "Drift recoveries seeded from cohort peer state.", nil, h.WarmRecoveries)
	tw.Counter("edgedrift_cold_fallbacks_total", "Drift recoveries that fell back to a cold rebuild (no eligible cohort peer).", nil, h.ColdFallbacks)
	tw.Counter("edgedrift_labels_observed_total", "Late labels fed to hybrid supervised arms.", nil, h.LabelsObserved)
	tw.Counter("edgedrift_supervised_fires_total", "Drift alarms raised by supervised error-rate arms.", nil, h.SupervisedFires)
	tw.Counter("edgedrift_supervised_triggers_total", "Reconstructions started by supervised alarms (FuseEither).", nil, h.SupervisedTriggers)
	tw.Counter("edgedrift_hybrid_confirms_total", "Drifts confirmed by both hybrid arms within the confirmation window.", nil, h.HybridConfirms)
	tw.Counter("edgedrift_pool_hits_total", "Post-drift windows matched by a pooled model checkpoint.", nil, h.PoolHits)
	tw.Counter("edgedrift_pool_misses_total", "Post-drift windows no pooled checkpoint fit.", nil, h.PoolMisses)
	tw.Counter("edgedrift_pool_restores_total", "Pooled checkpoints restored in place of cold retraining.", nil, h.PoolRestores)
	tw.Counter("edgedrift_pool_evictions_total", "Pool checkpoints evicted (LRU capacity or decode failure).", nil, h.PoolEvictions)
	healthy := 0.0
	if h.Healthy() {
		healthy = 1
	}
	tw.Gauge("edgedrift_healthy", "1 when every member's model state is finite.", nil, healthy)
	tw.Gauge("edgedrift_ptrace_max", "Largest tr(P) across model instances.", nil, h.PTraceMax)
	tw.Gauge("edgedrift_score_mean", "Pooled mean of monitoring anomaly scores.", nil, h.ScoreMean)
	tw.Gauge("edgedrift_score_std", "Pooled standard deviation of monitoring anomaly scores.", nil, h.ScoreStd)

	ids := make([]string, 0, len(m.PerStream))
	for id := range m.PerStream {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sm := m.PerStream[id]
		labels := []metrics.Label{{Name: "stream", Value: id}}
		tw.Counter("edgedrift_stream_samples_total", "Samples processed per stream.", labels, sm.Samples)
		tw.Counter("edgedrift_stream_drifts_total", "Drift detections per stream.", labels, sm.Drifts)
		if sm.Degraded {
			tw.Gauge("edgedrift_stream_degraded", "1 while the stream is demoted; the precision label names its active backend.",
				[]metrics.Label{{Name: "stream", Value: id}, {Name: "precision", Value: sm.ActivePrecision}}, 1)
		}
		if sm.Stage == nil {
			continue
		}
		tw.Counter("edgedrift_stream_rejected_total", "Guard rejections observed per stream.", labels, sm.Stage.Rejected)
		tw.Counter("edgedrift_stream_phase_transitions_total", "Detector phase transitions per stream.", labels, sm.Stage.PhaseTransitions)
		for p, n := range sm.Stage.PhaseSamples {
			tw.Counter("edgedrift_stream_phase_samples_total", "Samples per detector phase per stream.",
				[]metrics.Label{{Name: "stream", Value: id}, {Name: "phase", Value: Phase(p).String()}}, n)
		}
		if sm.Stage.Latency.Count > 0 {
			tw.Histogram("edgedrift_process_latency_seconds", "Sampled per-sample process latency.", labels, sm.Stage.Latency, 1e-9)
		}
	}
	return tw.Err()
}

// expvarPublished guards against the panic expvar.Publish raises on a
// duplicate name, turning re-registration into an error.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar registers the fleet's metrics roll-up under name in the
// process-wide expvar registry, so the standard /debug/vars endpoint
// (or any expvar consumer) sees a JSON rendering of Fleet.Metrics.
// Publishing the same name twice returns an error; expvar offers no
// unregistration, so the variable lives until process exit and keeps
// reading from this fleet.
func (f *Fleet) PublishExpvar(name string) error {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return fmt.Errorf("edgedrift: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return f.Metrics() }))
	expvarPublished[name] = true
	return nil
}

// StartHealthLogger renders a health snapshot through logf on a fixed
// cadence — the periodic structured health log for months-long
// unattended deployments. snap is polled at each tick (pass
// fleet.Health or monitor.Health); logf receives the single-line
// Snapshot.String() rendering. The returned stop function halts the
// logger and is safe to call more than once.
func StartHealthLogger(every time.Duration, snap func() HealthSnapshot, logf func(line string)) (stop func()) {
	if every <= 0 {
		panic("edgedrift: StartHealthLogger needs a positive interval")
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				logf(snap().String())
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
