package fixed

import (
	"fmt"

	"edgedrift/internal/core"
	"edgedrift/internal/health"
	"edgedrift/internal/opcount"
)

// Monitor is the on-device half of a split deployment: quantised label
// prediction over C autoencoder instances plus the sequential centroid
// drift check of Algorithm 1 in pure integer arithmetic. On detection it
// raises a pending flag (reported as the Reconstructing phase) rather
// than reconstructing — the host retrains and ships a fresh artifact,
// the realistic division of labour for an M0+-class device.
//
// Monitor is a core.Streaming stage, so the fleet layer can host
// Q16.16 members next to float detectors: input samples are quantised
// through retained buffers and results are widened back to float64.
type Monitor struct {
	instances []*Autoencoder
	dims      int

	trainCor [][]Q
	cor      [][]Q
	num      []int32

	thetaError Q
	thetaDrift Q
	window     int

	check   bool
	win     int
	dist    Q
	pending bool

	samples int
	events  []int
	sat     int // values clipped during quantisation
	ops     *opcount.Counter

	xq []Q // Process's quantised sample
}

// QuantizeDetector builds a fixed-point monitor from a calibrated float
// detector: every instance, centroid and threshold is quantised in one
// shot. Values that clip to the Q16.16 range are counted — see
// Saturations.
func QuantizeDetector(det *core.Detector) *Monitor {
	m := det.Model()
	classes := m.Classes()
	thetaE, satE := FromFloatChecked(det.ThetaError())
	thetaD, satD := FromFloatChecked(det.ThetaDrift())
	mon := &Monitor{
		dims:       m.Config().Inputs,
		window:     det.Config().Window,
		thetaError: thetaE,
		thetaDrift: thetaD,
		num:        make([]int32, classes),
		xq:         make([]Q, m.Config().Inputs),
	}
	if satE {
		mon.sat++
	}
	if satD {
		mon.sat++
	}
	for c := 0; c < classes; c++ {
		inst := QuantizeAutoencoder(m.Instance(c))
		mon.sat += inst.Saturations()
		trainCor, s1 := QuantizeVecChecked(det.TrainedCentroid(c))
		cor, s2 := QuantizeVecChecked(det.RecentCentroid(c))
		mon.sat += s1 + s2
		mon.instances = append(mon.instances, inst)
		mon.trainCor = append(mon.trainCor, trainCor)
		mon.cor = append(mon.cor, cor)
		mon.num[c] = 1
	}
	return mon
}

// Saturations reports how many values (weights, centroids, thresholds)
// clipped to the Q16.16 range while this monitor was quantised. Non-zero
// means the float detector's state exceeded the representable ±32768 and
// the fixed-point port is degraded; surface it via health reporting.
func (mon *Monitor) Saturations() int { return mon.sat }

// SetOps attaches an operation counter to the monitor and instances.
func (mon *Monitor) SetOps(c *opcount.Counter) {
	mon.ops = c
	for _, inst := range mon.instances {
		inst.SetOps(c)
	}
}

// Events returns sample indices of detections.
func (mon *Monitor) Events() []int {
	out := make([]int, len(mon.events))
	copy(out, mon.events)
	return out
}

// Process quantises one sample into the retained buffer and runs the
// fixed-point pipeline on it: the argmin prediction, the θ_error gate,
// the centroid window and the drift decision. It panics on a sample of
// the wrong width, as core.Detector does, rather than score it against
// stale buffer features.
func (mon *Monitor) Process(x []float64) core.Result {
	if len(x) != mon.dims {
		panic(fmt.Sprintf("fixed: sample dimension %d, want %d", len(x), mon.dims))
	}
	for i, v := range x {
		mon.xq[i] = FromFloat(v)
	}
	mon.samples++

	best, bestScore := 0, Q(0)
	for c, inst := range mon.instances {
		s := inst.Score(mon.xq)
		if c == 0 || s < bestScore {
			best, bestScore = c, s
		}
	}
	mon.ops.AddCmp(len(mon.instances) - 1)
	res := core.Result{Label: best, Score: bestScore.Float()}

	if mon.pending {
		// Awaiting host action; keep predicting, skip detection.
		res.Phase = core.Reconstructing
		return res
	}
	if !mon.check && bestScore >= mon.thetaError {
		mon.check = true
		mon.win = 0
	}
	mon.ops.AddCmp(1)
	if mon.check && mon.win < mon.window {
		mon.updateCentroid(best, mon.xq)
		mon.dist = mon.centroidDist()
		mon.win++
		if mon.win == mon.window {
			mon.ops.AddCmp(1)
			if mon.dist >= mon.thetaDrift {
				mon.pending = true
				mon.events = append(mon.events, mon.samples-1)
				res.DriftDetected = true
			}
			mon.check = false
		}
	}
	res.Phase = mon.phaseNow()
	return res
}

// phaseNow maps the monitor's state onto the detector phase vocabulary:
// an open check window is Checking, a drift awaiting host action is
// Reconstructing (the adaptation is in flight, just host-side in the
// split deployment), everything else is Monitoring.
func (mon *Monitor) phaseNow() core.Phase {
	switch {
	case mon.pending:
		return core.Reconstructing
	case mon.check:
		return core.Checking
	default:
		return core.Monitoring
	}
}

// updateCentroid applies the running-mean rule in fixed point:
// cor ← cor + (x − cor)/(n+1), the rearrangement that avoids the
// overflow-prone cor·n product.
func (mon *Monitor) updateCentroid(label int, x []Q) {
	n := mon.num[label]
	inv := Div(One, FromFloat(float64(n+1)))
	row := mon.cor[label]
	for j, v := range x {
		row[j] = Add(row[j], Mul(Sub(v, row[j]), inv))
	}
	mon.num[label] = n + 1
	mon.ops.AddMulAdd(2 * mon.dims)
	mon.ops.AddDiv(1)
}

func (mon *Monitor) centroidDist() Q {
	var total int64
	for c := range mon.cor {
		total += int64(L1DistAcc(mon.cor[c], mon.trainCor[c]))
	}
	mon.ops.AddAbs(len(mon.cor) * mon.dims)
	mon.ops.AddAdd(len(mon.cor) * mon.dims)
	return satur(total)
}

// MemoryBytes audits the monitor's retained state: 4-byte words for
// every weight and centroid — the number that must fit the device —
// plus the quantisation buffers.
func (mon *Monitor) MemoryBytes() int {
	const w = 4
	total := 8 * w // scalars
	for _, inst := range mon.instances {
		total += w * (len(inst.w) + len(inst.bias) + len(inst.beta) + len(inst.h) + len(inst.recon))
	}
	for c := range mon.cor {
		total += w * (len(mon.cor[c]) + len(mon.trainCor[c]))
	}
	total += 4 * len(mon.num)
	total += w * len(mon.xq)
	return total
}

// Health reports the fixed-point stage's view of itself. Integer state
// cannot go non-finite, so PFinite is always true; the interesting
// counter is QuantSaturations, which records how much of the float
// model clipped when this stage was quantised.
func (mon *Monitor) Health() health.Snapshot {
	return health.Snapshot{
		SamplesSeen:      mon.samples,
		PFinite:          true,
		QuantSaturations: uint64(mon.sat),
		Phase:            mon.phaseNow().String(),
	}
}

var _ core.Streaming = (*Monitor)(nil)
