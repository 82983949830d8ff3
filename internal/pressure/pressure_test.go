package pressure

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"edgedrift/internal/oselm"
)

// fakeMember is one pool entry the tests script directly.
type fakeMember struct {
	samples    uint64
	degraded   bool
	active     oselm.Precision
	capable    bool
	failDemote bool
}

// fakePool implements Pool with scripted members and a transition log.
type fakePool struct {
	members map[string]*fakeMember
	log     []string
}

func newFakePool(ids ...string) *fakePool {
	p := &fakePool{members: map[string]*fakeMember{}}
	for _, id := range ids {
		p.members[id] = &fakeMember{active: oselm.Float64, capable: true}
	}
	return p
}

func (p *fakePool) IDs() []string {
	ids := make([]string, 0, len(p.members))
	for id := range p.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (p *fakePool) MemberStats(id string) (uint64, uint64, error) {
	m, ok := p.members[id]
	if !ok {
		return 0, 0, fmt.Errorf("unknown %q", id)
	}
	return m.samples, 0, nil
}

func (p *fakePool) MemberPrecision(id string) (bool, oselm.Precision, bool, error) {
	m, ok := p.members[id]
	if !ok {
		return false, 0, false, fmt.Errorf("unknown %q", id)
	}
	return m.degraded, m.active, m.capable, nil
}

func (p *fakePool) DemoteMember(id string, target oselm.Precision) error {
	m := p.members[id]
	if m.failDemote {
		return errors.New("scripted refusal")
	}
	if m.degraded {
		return errors.New("already demoted")
	}
	m.degraded, m.active = true, target
	p.log = append(p.log, "demote:"+id)
	return nil
}

func (p *fakePool) PromoteMember(id string) error {
	m := p.members[id]
	if !m.degraded {
		return errors.New("not demoted")
	}
	m.degraded, m.active = false, oselm.Float64
	p.log = append(p.log, "promote:"+id)
	return nil
}

// serve advances per-member sample counters, defining who is "hot".
func (p *fakePool) serve(counts map[string]uint64) {
	for id, n := range counts {
		if m, ok := p.members[id]; ok {
			m.samples += n
		}
	}
}

// tickN drives n identical ticks, serving traffic before each so the
// coldness ranking stays populated.
func tickN(g *Governor, p *fakePool, p99Ns uint64, traffic map[string]uint64, n int) []Action {
	var acts []Action
	for i := 0; i < n; i++ {
		p.serve(traffic)
		if a := g.Tick(p99Ns); a.Kind != None {
			acts = append(acts, a)
		}
	}
	return acts
}

const (
	budgetNs = 1_000_000 // 1ms
	overNs   = 2_000_000 // over budget
	clearNs  = 500_000   // below clearFraction * budget
	bandNs   = 900_000   // inside the hysteresis band
)

// hot/cold traffic: "busy" serves 100 samples per tick, "idle" 1,
// "mid" 10 — the demotion order must be idle, mid, busy.
var traffic = map[string]uint64{"busy": 100, "mid": 10, "idle": 1}

func TestGovernorDemotesColdestFirst(t *testing.T) {
	p := newFakePool("busy", "mid", "idle")
	g := New(budgetNs, p)
	acts := tickN(g, p, overNs, traffic, 20)
	if len(acts) != 3 {
		t.Fatalf("actions under sustained pressure: %+v", acts)
	}
	want := []string{"demote:idle", "demote:mid", "demote:busy"}
	if !reflect.DeepEqual(p.log, want) {
		t.Fatalf("demotion order %v, want %v", p.log, want)
	}
	// Everything demoted: further pressure is a no-op, not an error loop.
	before := g.Metrics()
	if extra := tickN(g, p, overNs, traffic, 10); len(extra) != 0 {
		t.Fatalf("transitions with nothing left to demote: %+v", extra)
	}
	if after := g.Metrics(); after.Errors != before.Errors {
		t.Fatalf("errors grew from %d to %d on empty candidate set", before.Errors, after.Errors)
	}
}

func TestGovernorPromotesLIFOWhenClear(t *testing.T) {
	p := newFakePool("busy", "mid", "idle")
	g := New(budgetNs, p)
	tickN(g, p, overNs, traffic, 20)
	p.log = nil
	acts := tickN(g, p, clearNs, traffic, 30)
	if len(acts) != 3 {
		t.Fatalf("promotions when clear: %+v", acts)
	}
	// LIFO: last demoted (busy) recovers first.
	want := []string{"promote:busy", "promote:mid", "promote:idle"}
	if !reflect.DeepEqual(p.log, want) {
		t.Fatalf("promotion order %v, want %v", p.log, want)
	}
	m := g.Metrics()
	if m.Demoted != 0 || m.Demotions != 3 || m.Promotions != 3 {
		t.Fatalf("metrics after full cycle: %+v", m)
	}
}

// TestGovernorNeverFlaps is the acceptance criterion: under any steady
// signal — sustained band pressure, or oscillation that never holds a
// streak — the governor performs no transitions at all.
func TestGovernorNeverFlaps(t *testing.T) {
	t.Run("steady-in-band", func(t *testing.T) {
		p := newFakePool("busy", "idle")
		g := New(budgetNs, p)
		if acts := tickN(g, p, bandNs, traffic, 200); len(acts) != 0 {
			t.Fatalf("transitions inside the hysteresis band: %+v", acts)
		}
	})
	t.Run("oscillation-below-streaks", func(t *testing.T) {
		p := newFakePool("busy", "idle")
		g := New(budgetNs, p)
		var acts []Action
		for i := 0; i < 200; i++ {
			p99 := uint64(clearNs)
			if i%4 < 2 { // 2 over, 2 clear — never 3 consecutive of either
				p99 = overNs
			}
			p.serve(traffic)
			if a := g.Tick(p99); a.Kind != None {
				acts = append(acts, a)
			}
		}
		if len(acts) != 0 {
			t.Fatalf("oscillation below both streaks caused transitions: %+v", acts)
		}
	})
	t.Run("band-resets-streaks", func(t *testing.T) {
		p := newFakePool("busy", "idle")
		g := New(budgetNs, p)
		var acts []Action
		for i := 0; i < 200; i++ {
			p99 := uint64(overNs)
			if i%3 == 2 { // 2 over, then 1 in-band: the band tick resets
				p99 = bandNs
			}
			p.serve(traffic)
			if a := g.Tick(p99); a.Kind != None {
				acts = append(acts, a)
			}
		}
		if len(acts) != 0 {
			t.Fatalf("band ticks failed to reset the demotion streak: %+v", acts)
		}
	})
}

// TestGovernorCooldownSpacesTransitions: the over-budget streak refills
// in highStreak ticks, faster than the cooldown expires, so sustained
// pressure spaces demotions by the cooldown alone.
func TestGovernorCooldownSpacesTransitions(t *testing.T) {
	p := newFakePool("a", "b", "c", "d")
	g := New(budgetNs, p)
	even := map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4}
	var gaps []int
	last := -1
	for i := 0; i < 50; i++ {
		p.serve(even)
		if a := g.Tick(overNs); a.Kind == Demote {
			if last >= 0 {
				gaps = append(gaps, i-last)
			}
			last = i
		}
	}
	if len(gaps) != 3 {
		t.Fatalf("%d gaps between 4 demotions, want 3", len(gaps))
	}
	for _, gap := range gaps {
		if gap <= cooldown {
			t.Fatalf("demotions %d ticks apart, cooldown is %d", gap, cooldown)
		}
	}
}

func TestGovernorSkipsRefusalsAndCountsErrors(t *testing.T) {
	p := newFakePool("cold", "warm")
	p.members["cold"].failDemote = true
	g := New(budgetNs, p)
	tr := map[string]uint64{"cold": 1, "warm": 5}
	if acts := tickN(g, p, overNs, tr, highStreak); len(acts) != 1 || acts[0].Stream != "warm" {
		t.Fatalf("governor did not fall through to the next candidate: %+v", acts)
	}
	if !p.members["warm"].degraded {
		t.Fatal("warm member not demoted")
	}
	if m := g.Metrics(); m.Errors != 1 {
		t.Fatalf("refusals not counted: %+v", m)
	}
}

func TestGovernorForgetsRemovedMembers(t *testing.T) {
	p := newFakePool("a", "b")
	g := New(budgetNs, p)
	tr := map[string]uint64{"a": 1, "b": 5}
	tickN(g, p, overNs, tr, highStreak) // demotes a
	if !p.members["a"].degraded {
		t.Fatal("a not demoted")
	}
	delete(p.members, "a") // the member migrates away while demoted
	// Long enough for a promotion had a stayed.
	if acts := tickN(g, p, clearNs, map[string]uint64{"b": 5}, 2*(lowStreak+cooldown)); len(acts) != 0 {
		t.Fatalf("promoted a removed member: %+v", acts)
	}
	if m := g.Metrics(); m.Demoted != 0 {
		t.Fatalf("removed member still on the demotion stack: %+v", m)
	}
}

func TestGovernorZeroBudgetsNeverAct(t *testing.T) {
	p := newFakePool("a")
	g := New(0, p)
	if acts := tickN(g, p, 1<<60, map[string]uint64{"a": 1}, 50); len(acts) != 0 {
		t.Fatalf("governor with no budget acted: %+v", acts)
	}
}
