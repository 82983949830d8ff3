package core_test

import (
	"testing"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/model"
	"edgedrift/internal/oselm"
	"edgedrift/internal/pool"
	"edgedrift/internal/rng"
)

// capStage is a leaf stage exposing every capability Find discovers:
// Merger, Transitioner and the phase probe.
type capStage struct {
	demoted bool
}

func (c *capStage) Process(x []float64) core.Result   { return core.Result{} }
func (c *capStage) MemoryBytes() int                  { return 0 }
func (c *capStage) Health() health.Snapshot           { return health.Snapshot{} }
func (c *capStage) PhaseNow() core.Phase              { return core.Reconstructing }
func (c *capStage) MergeFingerprint() uint64          { return 0xcafe }
func (c *capStage) ExportMergeState() ([]byte, error) { return nil, nil }
func (c *capStage) MergeSeed(states [][]byte) error   { return nil }
func (c *capStage) Demote(p oselm.Precision) error    { c.demoted = true; return nil }
func (c *capStage) Promote() error                    { c.demoted = false; return nil }
func (c *capStage) ActivePrecision() oselm.Precision  { return oselm.Float64 }
func (c *capStage) Degraded() bool                    { return c.demoted }

type phaser = interface{ PhaseNow() core.Phase }

// TestFindSeesThroughSeams pins capability discovery through every
// wrapping stage — Instrumented, Hybrid and pool.Stage, alone and
// nested — for each capability the fleet and the wrappers look up:
// a found capability must be the wrapped leaf's, and a capability no
// stage in the chain has must stay undiscovered.
func TestFindSeesThroughSeams(t *testing.T) {
	m, err := model.New(model.Config{Classes: 2, Inputs: 3, Hidden: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.New(m, core.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.NewStage(det, pool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaf := &capStage{}
	seams := []struct {
		name  string
		stage core.Streaming
		leaf  core.Streaming
		trans bool // whether the leaf is a Transitioner
	}{
		{"bare", leaf, leaf, true},
		{"Instrumented", core.NewInstrumented(leaf, core.InstrumentConfig{StreamID: "s"}), leaf, true},
		{"Hybrid", core.NewHybrid(leaf, &capStage{}, core.HybridConfig{}), leaf, true},
		{"Hybrid/Hybrid", core.NewHybrid(core.NewHybrid(leaf, &capStage{}, core.HybridConfig{}), &capStage{}, core.HybridConfig{}), leaf, true},
		{"Instrumented/Hybrid", core.NewInstrumented(core.NewHybrid(leaf, &capStage{}, core.HybridConfig{}), core.InstrumentConfig{}), leaf, true},
		{"pool.Stage", pooled, det, false},
		{"Instrumented/pool.Stage", core.NewInstrumented(pooled, core.InstrumentConfig{}), det, false},
	}
	for _, sc := range seams {
		t.Run("Merger/"+sc.name, func(t *testing.T) {
			mg, ok := core.Find[core.Merger](sc.stage)
			if !ok || mg != sc.leaf.(core.Merger) {
				t.Fatalf("Find[Merger] = %v, %v; want the leaf", mg, ok)
			}
		})
		t.Run("Transitioner/"+sc.name, func(t *testing.T) {
			tr, ok := core.Find[core.Transitioner](sc.stage)
			if ok != sc.trans {
				t.Fatalf("Find[Transitioner] ok = %v, want %v", ok, sc.trans)
			}
			if ok && tr != sc.leaf.(core.Transitioner) {
				t.Fatal("Find[Transitioner] returned a stage other than the leaf")
			}
		})
		t.Run("phaser/"+sc.name, func(t *testing.T) {
			p, ok := core.Find[phaser](sc.stage)
			if !ok || p.PhaseNow() != sc.leaf.(phaser).PhaseNow() {
				t.Fatalf("Find[phaser] = %v, %v; want the leaf's phase", p, ok)
			}
		})
	}
	if _, ok := core.Find[core.Transitioner](nil); ok {
		t.Fatal("Find on a nil stage succeeded")
	}
}
