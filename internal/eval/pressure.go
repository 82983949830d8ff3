package eval

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/datasets/nslkdd"
)

// Forced-degradation matrix (BENCH_10) behind the adaptive capacity
// governor: it measures what the governor actually trades when it
// demotes a member — throughput gained against detection quality given
// up — at every level it can force, and gates the whole artifact on the
// demote→promote off-path being bit-exactly free. It drives the public
// edgedrift Monitor, whose precision lifecycle is what is measured.

// PressureLevels is the degradation axis of the matrix: the full-precision
// baseline and the two demotion targets the capacity governor can move
// a member to at runtime.
var PressureLevels = []string{"f64", "f32", "q16"}

// PressurePoint is one stream×level cell of the matrix: the throughput and
// detection quality of a monitor forced to that degradation level for
// the whole stream.
type PressurePoint struct {
	// Stream names the replayed stream ("nsl-kdd", "fan-sudden").
	Stream string `json:"stream"`
	// Level is the degradation level ("f64" baseline, "f32", "q16").
	Level string `json:"level"`
	// SamplesPerSec is host wall-clock scoring throughput, the median
	// of pressureRounds replays.
	SamplesPerSec float64 `json:"samples_per_sec"`
	// AccuracyPct is the labelled accuracy in percent, -1 for
	// unlabelled streams.
	AccuracyPct float64 `json:"accuracy_pct"`
	// AccuracyDeltaPct is AccuracyPct minus the stream's f64 baseline
	// (0 for the baseline itself and for unlabelled streams).
	AccuracyDeltaPct float64 `json:"accuracy_delta_pct"`
	// Delay is the detection delay against the ground-truth drift, -1
	// when the drift went undetected.
	Delay int `json:"delay"`
	// MemoryBytes is the monitor's retained footprint at this level —
	// origin plus twin while demoted, which is why demotion helps
	// latency budgets but *raises* retained memory.
	MemoryBytes int `json:"memory_bytes"`
}

// PressureReport is the full forced-degradation matrix plus the gate
// that makes it trustworthy: GoldenGateOK asserts that a monitor which
// took a demote→promote excursion before the replay is bit-identical —
// per-sample results and serialised state — to one that never degraded,
// i.e. the governor's off-path is exactly free.
type PressureReport struct {
	Seed         uint64          `json:"seed"`
	GoldenGateOK bool            `json:"golden_gate_ok"`
	Points       []PressurePoint `json:"points"`
}

// pressureStream is one replayable stream of the matrix with everything
// needed to build a fresh monitor for each cell.
type pressureStream struct {
	name    string
	build   func() (*edgedrift.Monitor, error)
	xs      [][]float64
	ys      []int // nil for unlabelled streams
	driftAt int
}

// pressureStreams assembles the Table 2 and Table 3 streams: the NSL-KDD
// surrogate (labelled, sudden drift) and the cooling-fan sudden stream
// (unlabelled, delay only).
func pressureStreams(seed uint64) []pressureStream {
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	fanP := coolingfan.DefaultParams()
	fanP.Seed = seed
	gen := coolingfan.NewGenerator(fanP)
	fanX, fanY := gen.TrainingSet(fanTrainN)
	fan := gen.TestSudden()
	return []pressureStream{
		{
			name: "nsl-kdd",
			build: func() (*edgedrift.Monitor, error) {
				mon, err := edgedrift.New(edgedrift.Options{
					Classes: 2, Inputs: nslkdd.Features, Hidden: nslHidden,
					Window: 100, Seed: seed, NRecon: proposedNReconNSL,
				})
				if err != nil {
					return nil, err
				}
				return mon, mon.Fit(ds.TrainX, ds.TrainY)
			},
			xs: ds.TestX, ys: ds.TestY, driftAt: ds.DriftAt,
		},
		{
			name: "fan-sudden",
			build: func() (*edgedrift.Monitor, error) {
				mon, err := edgedrift.New(edgedrift.Options{
					Classes: 1, Inputs: coolingfan.Features, Hidden: fanHidden,
					Window: 50, Seed: seed, NRecon: proposedNReconFan,
				})
				if err != nil {
					return nil, err
				}
				return mon, mon.Fit(fanX, fanY)
			},
			xs: fan.X, driftAt: fan.DriftAt,
		},
	}
}

// demoteFor forces a freshly fitted monitor to the given level. The f64
// level is the untouched baseline.
func demoteFor(mon *edgedrift.Monitor, level string) error {
	switch level {
	case "f64":
		return nil
	case "f32":
		return mon.Demote(edgedrift.Float32)
	case "q16":
		return mon.Demote(edgedrift.Fixed16)
	default:
		return fmt.Errorf("eval: unknown pressure level %q", level)
	}
}

// pressureRounds is how many times every level of a stream is replayed,
// each time by a fresh monitor. Every replay computes the same results,
// so accuracy, delay and memory come from the first round; throughput
// is the median round.
const pressureRounds = 5

// pressureChunk is how many samples one level's monitor processes
// before the replay hands the host to the next level. On a shared host
// one ~50 ms replay's rate varies by ±25%, and the levels being compared
// are closer than that (f32 leads f64 by ~12% on NSL-KDD). Taking turns
// every chunk (well under a millisecond at the NSL-KDD shape) exposes
// every level to the same host phases, so a slow phase slows them all
// instead of deciding their order.
const pressureChunk = 256

// replayPressure runs the whole stream through each level's monitor,
// per sample and in order, with the monitors taking turns every
// pressureChunk samples (in reversed order every other chunk). It
// measures each level's wall-clock throughput, labelled accuracy and
// detection delay. Detections are counted from per-sample results
// because a q16-demoted monitor's lifetime DriftEvents belong to the
// frozen origin, not the twin doing the work. The garbage of building
// the monitors is collected before the clock starts, so a collection
// it triggers is not charged to any level's scoring.
func replayPressure(mons []*edgedrift.Monitor, st pressureStream) []PressurePoint {
	elapsed := make([]time.Duration, len(mons))
	correct := make([]int, len(mons))
	detectedAt := make([]int, len(mons))
	for i := range detectedAt {
		detectedAt[i] = -1
	}
	runtime.GC()
	for lo := 0; lo < len(st.xs); lo += pressureChunk {
		hi := min(lo+pressureChunk, len(st.xs))
		for k := range mons {
			m := k
			if lo/pressureChunk%2 == 1 {
				m = len(mons) - 1 - k
			}
			start := time.Now()
			for i := lo; i < hi; i++ {
				res := mons[m].Process(st.xs[i])
				if st.ys != nil && res.Label == st.ys[i] {
					correct[m]++
				}
				if res.DriftDetected && detectedAt[m] < 0 && i >= st.driftAt {
					detectedAt[m] = i
				}
			}
			elapsed[m] += time.Since(start)
		}
	}
	points := make([]PressurePoint, len(mons))
	for m, mon := range mons {
		p := PressurePoint{
			Stream:        st.name,
			SamplesPerSec: float64(len(st.xs)) / elapsed[m].Seconds(),
			AccuracyPct:   -1,
			Delay:         -1,
			MemoryBytes:   mon.MemoryBytes(),
		}
		if st.ys != nil {
			p.AccuracyPct = 100 * float64(correct[m]) / float64(len(st.xs))
		}
		if detectedAt[m] >= 0 {
			p.Delay = detectedAt[m] - st.driftAt
		}
		points[m] = p
	}
	return points
}

// pressureGolden is the gate: replay the stream through a monitor that
// took a full demote→promote excursion (f32 then q16) before the first
// sample and through one that never degraded, and require bit-identical
// per-sample results plus bit-identical serialised state afterwards.
func pressureGolden(st pressureStream) (bool, error) {
	clean, err := st.build()
	if err != nil {
		return false, err
	}
	excursion, err := st.build()
	if err != nil {
		return false, err
	}
	for _, target := range []edgedrift.Precision{edgedrift.Float32, edgedrift.Fixed16} {
		if err := excursion.Demote(target); err != nil {
			return false, err
		}
		if err := excursion.Promote(); err != nil {
			return false, err
		}
	}
	for _, x := range st.xs {
		a, b := clean.Process(x), excursion.Process(x)
		if a != b {
			return false, nil
		}
	}
	var wantState, gotState bytes.Buffer
	if err := clean.Save(&wantState, edgedrift.Float64); err != nil {
		return false, err
	}
	if err := excursion.Save(&gotState, edgedrift.Float64); err != nil {
		return false, err
	}
	return bytes.Equal(wantState.Bytes(), gotState.Bytes()), nil
}

// PressureMatrix produces the forced-degradation matrix: for each Table
// 2/3 stream and each degradation level, a fresh monitor is fitted,
// demoted to the level, and replayed end to end, pressureRounds times
// with the levels taking turns (see replayPressure). The golden gate
// runs on the cooling-fan stream (the cheaper of the two full replays).
func PressureMatrix(seed uint64) (*PressureReport, error) {
	ss := pressureStreams(seed)
	rep := &PressureReport{Seed: seed}
	for _, st := range ss {
		var points []PressurePoint
		rates := make([][]float64, len(PressureLevels))
		mons := make([]*edgedrift.Monitor, len(PressureLevels))
		for r := 0; r < pressureRounds; r++ {
			for i, level := range PressureLevels {
				mon, err := st.build()
				if err != nil {
					return nil, fmt.Errorf("eval: pressure %s: %w", st.name, err)
				}
				if err := demoteFor(mon, level); err != nil {
					return nil, fmt.Errorf("eval: pressure %s/%s: %w", st.name, level, err)
				}
				mons[i] = mon
			}
			ps := replayPressure(mons, st)
			if r == 0 {
				points = ps
			}
			for i, p := range ps {
				rates[i] = append(rates[i], p.SamplesPerSec)
			}
		}
		base := -1.0
		for i, level := range PressureLevels {
			p := points[i]
			slices.Sort(rates[i])
			p.SamplesPerSec = rates[i][pressureRounds/2]
			p.Level = level
			if st.ys != nil {
				if level == "f64" {
					base = p.AccuracyPct
				}
				p.AccuracyDeltaPct = p.AccuracyPct - base
			}
			rep.Points = append(rep.Points, p)
		}
	}
	ok, err := pressureGolden(ss[1])
	if err != nil {
		return nil, fmt.Errorf("eval: pressure golden gate: %w", err)
	}
	rep.GoldenGateOK = ok
	return rep, nil
}
