package stream

import (
	"fmt"
	"math"

	"edgedrift/internal/rng"
)

// DelayKind selects the distribution a label's arrival delay is drawn
// from. Real edge deployments never see labels with the sample: an
// operator confirms an anomaly hours later (roughly fixed delay), a
// batch audit samples the log (uniform), or a ticket queue drains with
// memoryless service times (geometric).
type DelayKind int

const (
	// DelayFixed delivers every label exactly Delay steps late.
	DelayFixed DelayKind = iota
	// DelayUniform draws each delay uniformly from [0, 2·Delay], so the
	// mean delay is Delay.
	DelayUniform
	// DelayGeometric draws each delay from a geometric distribution
	// with mean Delay (success probability 1/(Delay+1)).
	DelayGeometric
)

// String implements fmt.Stringer.
func (k DelayKind) String() string {
	switch k {
	case DelayFixed:
		return "fixed"
	case DelayUniform:
		return "uniform"
	case DelayGeometric:
		return "geometric"
	default:
		return "unknown"
	}
}

// DelaySpec configures the delayed-label replay model: how late each
// sample's label arrives, and what fraction of labels arrive at all.
type DelaySpec struct {
	// Kind is the delay distribution.
	Kind DelayKind
	// Delay is the fixed delay (DelayFixed) or the mean delay
	// (DelayUniform, DelayGeometric), in stream steps. Zero means
	// labels arrive with their sample.
	Delay int
	// Budget is the fraction of labels that ever arrive, in (0, 1];
	// zero means 1 (every label arrives). The complement is dropped
	// before the delay draw — those samples are simply never labelled.
	Budget float64
	// Seed drives the schedule's own generator, so the same spec over
	// the same stream always yields the same arrivals regardless of
	// what other randomness the experiment consumes.
	Seed uint64
}

// Arrival is one label landing: the label of sample Index becomes
// known to the learner at the schedule step it was bucketed under.
type Arrival struct {
	Index int
	Label int
}

// DelaySchedule is a materialised delayed-label replay for one stream:
// every labelled sample either gets an arrival step (its own index plus
// a drawn delay) or is dropped by the label budget. The schedule is
// computed once up front so replaying it is allocation-free and
// deterministic — runners call At(t) after processing sample t and feed
// whatever arrives to the supervised side channel.
type DelaySchedule struct {
	arrivals [][]Arrival
	observed int
	dropped  int
	expired  int
}

// NewDelaySchedule draws the arrival schedule for a labelled stream.
// labels[i] is sample i's ground-truth label; the returned schedule is
// len(labels) steps long. Labels whose drawn arrival falls past the end
// of the stream expire: they count as never arriving, exactly like an
// audit result that lands after the deployment moved on.
func NewDelaySchedule(labels []int, spec DelaySpec) (*DelaySchedule, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("stream: delay schedule over an unlabelled stream")
	}
	if spec.Delay < 0 {
		return nil, fmt.Errorf("stream: negative label delay %d", spec.Delay)
	}
	if spec.Budget < 0 || spec.Budget > 1 {
		return nil, fmt.Errorf("stream: label budget %v outside [0, 1]", spec.Budget)
	}
	budget := spec.Budget
	if budget == 0 {
		budget = 1
	}
	n := len(labels)
	s := &DelaySchedule{arrivals: make([][]Arrival, n)}
	r := rng.New(spec.Seed)
	for i, lab := range labels {
		// Draw the budget coin and the delay unconditionally so the
		// schedule for sample i does not depend on the fate of samples
		// before it — comparable across budgets at one seed.
		keep := budget >= 1 || r.Bernoulli(budget)
		d := drawDelay(spec, r)
		if !keep {
			s.dropped++
			continue
		}
		at := i + d
		if at >= n {
			s.expired++
			continue
		}
		s.observed++
		s.arrivals[at] = append(s.arrivals[at], Arrival{Index: i, Label: lab})
	}
	return s, nil
}

// drawDelay draws one delay from the spec's distribution.
func drawDelay(spec DelaySpec, r *rng.Rand) int {
	if spec.Delay == 0 {
		return 0
	}
	switch spec.Kind {
	case DelayUniform:
		return r.Intn(2*spec.Delay + 1)
	case DelayGeometric:
		// Inverse-CDF sample of Geometric(p) on {0, 1, ...} with mean
		// Delay = (1-p)/p, i.e. p = 1/(Delay+1). Float64 is in [0, 1),
		// so the log argument stays in (0, 1].
		p := 1 / (float64(spec.Delay) + 1)
		return int(math.Log(1-r.Float64()) / math.Log(1-p))
	default:
		return spec.Delay
	}
}

// Len returns the schedule length in steps (the stream length).
func (s *DelaySchedule) Len() int { return len(s.arrivals) }

// At returns the labels arriving at step t — meant to be consumed after
// the learner has processed sample t, so a zero-delay label is usable
// one step after its sample, never before it. The slice is owned by the
// schedule; callers must not retain it across steps.
func (s *DelaySchedule) At(t int) []Arrival {
	if t < 0 || t >= len(s.arrivals) {
		return nil
	}
	return s.arrivals[t]
}

// Observed returns how many labels arrive within the stream.
func (s *DelaySchedule) Observed() int { return s.observed }

// Dropped returns how many labels the budget removed entirely.
func (s *DelaySchedule) Dropped() int { return s.dropped }

// Expired returns how many labels were kept by the budget but drawn to
// arrive after the stream ends.
func (s *DelaySchedule) Expired() int { return s.expired }
