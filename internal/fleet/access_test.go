package fleet

import (
	"errors"
	"io"
	"strings"
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/oselm"
)

// spyStage has every capability the fleet discovers at registration
// (merge, precision transition, phase) and counts every call into it,
// so a test can tell whether a fleet method reached the stage at all.
type spyStage struct{ calls int }

func (s *spyStage) Process([]float64) core.Result {
	s.calls++
	return core.Result{Label: -1, Phase: core.Monitoring, DriftDetected: true}
}
func (s *spyStage) MemoryBytes() int                  { return 0 }
func (s *spyStage) Health() health.Snapshot           { s.calls++; return health.Snapshot{PFinite: true} }
func (s *spyStage) MergeFingerprint() uint64          { return 42 }
func (s *spyStage) ExportMergeState() ([]byte, error) { s.calls++; return []byte{1}, nil }
func (s *spyStage) MergeSeed([][]byte) error          { s.calls++; return nil }
func (s *spyStage) PhaseNow() core.Phase              { s.calls++; return core.Monitoring }
func (s *spyStage) Demote(oselm.Precision) error      { s.calls++; return nil }
func (s *spyStage) Promote() error                    { s.calls++; return nil }
func (s *spyStage) ActivePrecision() oselm.Precision  { s.calls++; return oselm.Float64 }
func (s *spyStage) Degraded() bool                    { s.calls++; return false }

// TestSealedMemberUnreachable pins the sealed-member invariant every
// per-member method gets from lockLive: once Remove or ExportMember has
// sealed a member, each method fails with the unknown-stream error and
// neither calls into the stage nor moves the member's counters. Both
// ways a caller can meet a sealed member are covered: the ID is gone
// from the registry, or the caller looked the member up before the seal
// and took its lock after (reproduced by putting the sealed member back
// in the registry).
func TestSealedMemberUnreachable(t *testing.T) {
	methods := []struct {
		name string
		call func(f *Fleet) error
		// transition methods count every failure in TransitionFailures.
		transition bool
	}{
		{name: "Cohort", call: func(f *Fleet) error { _, err := f.Cohort("s"); return err }},
		{name: "ProcessBatch", call: func(f *Fleet) error { _, err := f.ProcessBatch("s", samples(3, 0)); return err }},
		{name: "ExportMergeState", call: func(f *Fleet) error { _, _, err := f.ExportMergeState("s"); return err }},
		{name: "MergeSeedMember", call: func(f *Fleet) error { return f.MergeSeedMember("s", [][]byte{{1}}) }},
		{name: "MemberFingerprint", call: func(f *Fleet) error { _, err := f.MemberFingerprint("s"); return err }},
		{name: "DemoteMember", call: func(f *Fleet) error { return f.DemoteMember("s", oselm.Float32) }, transition: true},
		{name: "PromoteMember", call: func(f *Fleet) error { return f.PromoteMember("s") }, transition: true},
		{name: "MemberPrecision", call: func(f *Fleet) error { _, _, _, err := f.MemberPrecision("s"); return err }},
		{name: "Do", call: func(f *Fleet) error {
			return f.Do("s", func(core.Streaming) error { return errors.New("Do ran fn on a sealed member") })
		}},
		{name: "MemberStats", call: func(f *Fleet) error { _, _, err := f.MemberStats("s"); return err }},
	}
	seals := []struct {
		name string
		seal func(f *Fleet) error
	}{
		{"Remove", func(f *Fleet) error {
			if _, _, ok := f.Remove("s"); !ok {
				return errors.New("Remove found no member")
			}
			return nil
		}},
		{"ExportMember", func(f *Fleet) error {
			enc := func(string, core.Streaming, io.Writer) (byte, error) { return 0, nil }
			_, err := f.ExportMember("s", enc)
			return err
		}},
	}
	for _, sl := range seals {
		for _, stale := range []bool{false, true} {
			for _, mt := range methods {
				name := sl.name + "/gone/" + mt.name
				if stale {
					name = sl.name + "/stale/" + mt.name
				}
				t.Run(name, func(t *testing.T) {
					f := New(Config{Instrument: true})
					events := f.Subscribe()
					spy := &spyStage{}
					if err := f.AddMember("s", spy, MemberConfig{Cohort: "c"}); err != nil {
						t.Fatal(err)
					}
					if _, err := f.ProcessBatch("s", samples(2, 0)); err != nil {
						t.Fatal(err)
					}
					for len(events) > 0 {
						<-events
					}
					sh := f.shardOf("s")
					m := sh.members["s"]
					if err := sl.seal(f); err != nil {
						t.Fatal(err)
					}
					if stale {
						sh.members["s"] = m
					}
					before := f.Metrics()
					spy.calls = 0

					err := mt.call(f)
					if err == nil || !strings.Contains(err.Error(), `fleet: unknown stream "s"`) {
						t.Fatalf("err = %v, want the unknown-stream error", err)
					}
					if spy.calls != 0 {
						t.Fatalf("%d call(s) reached the sealed member's stage", spy.calls)
					}
					if m.samples != 2 || m.drifts != 2 || !m.removed {
						t.Fatalf("sealed member moved: samples=%d drifts=%d removed=%v", m.samples, m.drifts, m.removed)
					}
					if len(events) != 0 {
						t.Fatal("a sealed member emitted a drift event")
					}
					after := f.Metrics()
					wantFailures := before.TransitionFailures
					if mt.transition {
						wantFailures++
					}
					if after.TransitionFailures != wantFailures || after.Demotions != before.Demotions ||
						after.Promotions != before.Promotions || after.PeersSkipped != before.PeersSkipped ||
						after.Streams != before.Streams {
						t.Fatalf("fleet counters moved: before %+v, after %+v", before, after)
					}
				})
			}
		}
	}
}
