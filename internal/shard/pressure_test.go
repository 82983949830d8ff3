package shard

import (
	"testing"
	"time"

	"edgedrift"
	"edgedrift/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShardGovernorDemotesUnderPressureAndRecovers is the shard-level
// transition round trip: a governor with an impossible latency budget
// demotes members while batches flow, the wire Stats carry the
// degradation, and once ingest stops (windowed pressure reads clear)
// every member is promoted back to full precision.
func TestShardGovernorDemotesUnderPressureAndRecovers(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{
		Template: template,
		// 1ns latency budget: every processed batch is over budget, so
		// demotion pressure is sustained while traffic flows and clears
		// the moment it stops.
		PressureBudget:   time.Nanosecond,
		PressureInterval: 5 * time.Millisecond,
	})

	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Keep batches flowing until the governor has demoted both streams.
	waitFor(t, 10*time.Second, "both members demoted", func() bool {
		for _, id := range []string{"a", "b"} {
			if _, _, err := cl.SendBatch(nil, id, stream[:100]); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats().Degraded == 2
	})

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 2 || st.Demotions < 2 {
		t.Fatalf("wire stats under pressure: %+v", st)
	}
	if st.IngestP99Ns == 0 {
		t.Fatal("wire stats carry no ingest p99")
	}
	for _, id := range []string{"a", "b"} {
		degraded, active, _, err := s.Fleet().MemberPrecision(id)
		if err != nil || !degraded || active != edgedrift.Float32 {
			t.Fatalf("%s: degraded=%v active=%v err=%v", id, degraded, active, err)
		}
	}

	// Demoted members still serve batches.
	if _, _, err := cl.SendBatch(nil, "a", stream[100:200]); err != nil {
		t.Fatal(err)
	}

	// Stop ingest: the windowed p99 reads 0, pressure clears, and the
	// governor promotes everything back.
	waitFor(t, 10*time.Second, "both members promoted", func() bool {
		return s.Stats().Degraded == 0
	})
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Promotions < 2 {
		t.Fatalf("wire stats after recovery: %+v", st)
	}
	for _, id := range []string{"a", "b"} {
		degraded, active, _, err := s.Fleet().MemberPrecision(id)
		if err != nil || degraded || active != edgedrift.Float64 {
			t.Fatalf("%s after recovery: degraded=%v active=%v err=%v", id, degraded, active, err)
		}
	}
}

// TestShardGovernorSteadyLoadNoFlap runs a shard WITH headroom — a
// generous budget a local replay cannot exceed — under steady load and
// asserts the governor never transitions at all.
func TestShardGovernorSteadyLoadNoFlap(t *testing.T) {
	template, stream := testTemplate(t)
	s, addr := startShard(t, Config{
		Template:         template,
		PressureBudget:   time.Hour,
		PressureInterval: 2 * time.Millisecond,
	})
	cl, err := wire.DialClient(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 100; i++ {
		if _, _, err := cl.SendBatch(nil, "s", stream[:50]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Demotions != 0 || st.Promotions != 0 || st.Degraded != 0 {
		t.Fatalf("governor flapped under steady in-budget load: %+v", st)
	}
}
