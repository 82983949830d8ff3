// Package pressure is the adaptive capacity governor: the control loop
// that turns the precision lifecycle (Monitor.Demote / Promote, fleet
// transitions) into an automatic response to load on a shard. It
// watches one budget — p99 ingest latency — and demotes the coldest
// members to f32 first while the budget is exceeded, promoting them
// back (most recently demoted first) when the pressure clears.
//
// There is no memory budget: demotion keeps each member's f64 origin
// alongside its twin (that is what makes promotion bit-exact), so a
// demotion always raises retained memory and can never relieve it.
//
// The governor is deliberately clock-free and side-effect-free except
// through the Pool interface: the caller samples the p99 and calls
// Tick, so every decision is a pure function of the observed sequence
// and the tests can replay any scenario deterministically. Flap
// resistance is structural, not tuned: a demotion needs highStreak
// consecutive over-budget ticks, a promotion needs lowStreak
// consecutive ticks at or below clearFraction of the budget (a genuine
// hysteresis band — ticks between the two thresholds reset both
// streaks), and any transition starts a cooldown during which the
// governor only watches.
package pressure

import (
	"sort"

	"edgedrift/internal/oselm"
)

// Pool is the slice of a fleet the governor drives. *edgedrift.Fleet
// satisfies it.
type Pool interface {
	// IDs returns the registered stream IDs, sorted.
	IDs() []string
	// MemberStats returns one stream's lifetime sample and drift counts.
	MemberStats(id string) (samples, drifts uint64, err error)
	// MemberPrecision reports a member's transition state.
	MemberPrecision(id string) (degraded bool, active oselm.Precision, capable bool, err error)
	// DemoteMember and PromoteMember run the transitions.
	DemoteMember(id string, p oselm.Precision) error
	PromoteMember(id string) error
}

// The control loop's constants. None is a setting: the streaks, the
// band and the cooldown are what make the loop flap-proof.
const (
	// target is the precision members are demoted to: f32 runs about
	// 1.15× as fast as f64 on NSL-KDD (BENCH_10) and, unlike q16, still
	// trains, so a demoted member keeps its full Algorithm 2.
	target = oselm.Float32
	// highStreak consecutive over-budget ticks arm a demotion, so one
	// slow window (a GC pause, a burst) never demotes anything.
	highStreak = 3
	// lowStreak consecutive clear ticks arm a promotion: twice the
	// demotion streak, so recovery waits for evidence that the load
	// has really gone.
	lowStreak = 6
	// clearFraction scales the budget down to the promotion threshold,
	// opening the hysteresis band between "over budget" and "clear".
	clearFraction = 0.75
	// cooldown is the minimum number of ticks between two transitions,
	// so the p99 windows after a transition measure its effect.
	cooldown = 5
)

// ActionKind classifies what a Tick did.
type ActionKind int

const (
	// None: the governor only watched this tick.
	None ActionKind = iota
	// Demote: one member was demoted to f32.
	Demote
	// Promote: the most recently governor-demoted member was promoted.
	Promote
)

// Action reports one Tick's decision.
type Action struct {
	Kind   ActionKind
	Stream string
}

// Metrics is the governor's counter snapshot.
type Metrics struct {
	Ticks      uint64
	OverBudget uint64 // ticks with the p99 over budget
	Demotions  uint64
	Promotions uint64
	Errors     uint64 // transitions the pool refused
	Demoted    int    // members currently demoted by this governor
}

// Governor is the control loop. Not safe for concurrent Tick calls;
// drive it from one goroutine (the shard's pressure loop).
type Governor struct {
	budgetNs uint64
	pool     Pool

	lastSamples map[string]uint64 // per-member lifetime samples at the previous tick
	lastDelta   map[string]uint64 // samples served between the last two ticks
	stack       []string          // members demoted by this governor, LIFO

	high, low   int
	sinceChange int

	ticks, overBudget, demotions, promotions, errs uint64
}

// New builds a governor over a pool with a p99 ingest-latency budget
// in nanoseconds. A zero budget never acts.
func New(budgetNs uint64, pool Pool) *Governor {
	return &Governor{
		budgetNs:    budgetNs,
		pool:        pool,
		lastSamples: map[string]uint64{},
		lastDelta:   map[string]uint64{},
		sinceChange: cooldown + 1, // no cooldown before the first transition
	}
}

// Tick advances the control loop one step with the observed p99 ingest
// latency and performs at most one transition. It never flaps: the
// streak and cooldown preconditions make a demote→promote oscillation
// impossible under any steady pressure signal.
func (g *Governor) Tick(p99Ns uint64) Action {
	g.ticks++
	g.sinceChange++
	g.updateColdness()

	switch {
	case g.budgetNs == 0:
		// No budget: the governor only counts ticks.
	case p99Ns > g.budgetNs:
		g.overBudget++
		g.high++
		g.low = 0
		if g.high >= highStreak && g.sinceChange > cooldown {
			if id, ok := g.demoteColdest(); ok {
				g.high = 0
				g.sinceChange = 0
				return Action{Kind: Demote, Stream: id}
			}
		}
	case float64(p99Ns) <= clearFraction*float64(g.budgetNs):
		g.low++
		g.high = 0
		if g.low >= lowStreak && g.sinceChange > cooldown && len(g.stack) > 0 {
			if id, ok := g.promoteLatest(); ok {
				g.low = 0
				g.sinceChange = 0
				return Action{Kind: Promote, Stream: id}
			}
		}
	default:
		// Inside the hysteresis band: neither demotion nor promotion
		// evidence accumulates — this is what prevents flapping around
		// either threshold.
		g.high, g.low = 0, 0
	}
	return Action{Kind: None}
}

// updateColdness refreshes the per-member sample deltas used to rank
// members by recent activity. Members the pool no longer knows are
// forgotten (and dropped from the demotion stack — a removed member
// cannot be promoted).
func (g *Governor) updateColdness() {
	ids := g.pool.IDs()
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
		n, _, err := g.pool.MemberStats(id)
		if err != nil {
			continue
		}
		if prev, ok := g.lastSamples[id]; ok {
			g.lastDelta[id] = n - prev
		} else {
			g.lastDelta[id] = 0
		}
		g.lastSamples[id] = n
	}
	for id := range g.lastSamples {
		if !seen[id] {
			delete(g.lastSamples, id)
			delete(g.lastDelta, id)
		}
	}
	if len(g.stack) > 0 {
		kept := g.stack[:0]
		for _, id := range g.stack {
			if seen[id] {
				kept = append(kept, id)
			}
		}
		g.stack = kept
	}
}

// demoteColdest demotes the least recently active member that is
// capable and not already demoted, trying candidates in coldness order
// until one succeeds. Ties break by ID so the choice is deterministic.
func (g *Governor) demoteColdest() (string, bool) {
	type cand struct {
		id    string
		delta uint64
	}
	var cands []cand
	for _, id := range g.pool.IDs() {
		degraded, _, capable, err := g.pool.MemberPrecision(id)
		if err != nil || !capable || degraded {
			continue
		}
		cands = append(cands, cand{id: id, delta: g.lastDelta[id]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delta != cands[j].delta {
			return cands[i].delta < cands[j].delta
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		if err := g.pool.DemoteMember(c.id, target); err != nil {
			g.errs++
			continue
		}
		g.demotions++
		g.stack = append(g.stack, c.id)
		return c.id, true
	}
	return "", false
}

// promoteLatest promotes the most recently demoted member (LIFO: the
// member degraded longest gets its full precision back last, keeping
// the recovery order the mirror of the degradation order).
func (g *Governor) promoteLatest() (string, bool) {
	for len(g.stack) > 0 {
		id := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		if err := g.pool.PromoteMember(id); err != nil {
			g.errs++
			continue
		}
		g.promotions++
		return id, true
	}
	return "", false
}

// Metrics snapshots the governor's counters.
func (g *Governor) Metrics() Metrics {
	return Metrics{
		Ticks:      g.ticks,
		OverBudget: g.overBudget,
		Demotions:  g.demotions,
		Promotions: g.promotions,
		Errors:     g.errs,
		Demoted:    len(g.stack),
	}
}
