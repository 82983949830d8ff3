package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricAndWorkloadNames(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(endToEndMetrics, perLayerMetrics...) {
		names = append(names, m.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// emitted lists the name/unit pairs a run mode puts in its result line.
func emitted(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if d.emitted {
			out = append(out, d.name+" "+d.unit)
		}
	}
	sort.Strings(out)
	return out
}

func listed(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func TestEmittedKeysMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	if got, want := emitted(endToEndMetrics), listed(b.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end metrics emitted %v, BENCHMARK.json lists %v", got, want)
	}
	if got, want := emitted(perLayerMetrics), listed(b.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics emitted %v, BENCHMARK.json lists %v", got, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); got != strings.Join([]string{"[", strings.Join(names, " "), "]"}, "") {
		t.Errorf("workloads %s, BENCHMARK.json lists %v", got, names)
	}
}

// smokeRun is one short run of a workload, shared by the tests below.
type smokeRun struct {
	out *outcome
	res result
	err error
}

var (
	smokeMu   sync.Mutex
	smokeRuns = map[string]*smokeRun{}
)

func smoke(t *testing.T, name string, trace bool) *smokeRun {
	t.Helper()
	key := name + map[bool]string{false: "/e2e", true: "/trace"}[trace]
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if r, ok := smokeRuns[key]; ok {
		return r
	}
	cfg := config{
		seed: 7, dur: 400 * time.Millisecond, trace: trace, setups: 1,
		traceFile: filepath.Join(t.TempDir(), "trace.jsonl"),
	}
	r := &smokeRun{}
	smokeRuns[key] = r
	if r.out, r.err = workloads[name](cfg); r.err != nil {
		return r
	}
	r.out.workload = name
	var buf bytes.Buffer
	if r.err = report(&buf, hostBlock(), cfg, r.out); r.err != nil {
		return r
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	r.err = json.Unmarshal([]byte(lines[len(lines)-1]), &r.res)
	if r.err == nil && trace {
		r.err = writeTrace(cfg.traceFile, hostBlock(), cfg.seed, r.out)
	}
	return r
}

func TestSmokeRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			r := smoke(t, w.Name, trace)
			if r.err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, r.err)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			var got []string
			for n, m := range r.res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(listed(want), ",") {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, listed(want))
			}
			if !r.res.Correct || len(r.out.failures) > 0 {
				t.Errorf("%s trace=%v: correctness gates failed: %v", w.Name, trace, r.out.failures)
			}
			if r.res.Attempted < 1 || r.res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, r.res.Attempted, r.res.Failed)
			}
			if !trace && r.out.vals["result_mismatches"] != 0 {
				t.Errorf("%s: %v result mismatches", w.Name, r.out.vals["result_mismatches"])
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, drift := range []bool{false, true} {
		a, b, c := newFanInputs(1, drift), newFanInputs(1, drift), newFanInputs(2, drift)
		if a.digest != b.digest || a.digest == c.digest {
			t.Errorf("fan drift=%v digests: seed 1 %x and %x, seed 2 %x", drift, a.digest, b.digest, c.digest)
		}
	}
	a, b, c := newTierInputs(1), newTierInputs(1), newTierInputs(2)
	if a.digest != b.digest || a.digest == c.digest {
		t.Errorf("tier digests: seed 1 %x and %x, seed 2 %x", a.digest, b.digest, c.digest)
	}
}

func TestSelfTimesAddUpToTracedTotal(t *testing.T) {
	fanTerms := map[string]float64{
		"unattributed_ns_per_sample": 1, "edgedrift.self_ns_per_sample": 1,
		"core.self_ns_per_sample": 1, "model.self_ns_per_sample": 1,
		"oselm.score_self_ns_per_sample": 1, "oselm.train_self_ns_per_sample": 1,
		"mat.score_ns_per_sample": 1, "mat.train_ns_per_sample": 1,
	}
	tierTerms := map[string]float64{
		"unattributed_us_per_batch": 1, "router.self_us_per_batch": 1, "shard.self_us_per_batch": 1,
		"wire.encode_ns_per_batch": 1e-3, "wire.decode_ns_per_batch": 1e-3,
		"wire.ack_encode_ns_per_batch": 1e-3, "wire.ack_parse_ns_per_batch": 1e-3,
		"fleet.self_ns_per_batch": 1e-3, "edgedrift.batch_self_ns_per_batch": 1e-3,
		"core.batch_self_ns_per_batch": 1e-3, "model.batch_self_ns_per_batch": 1e-3,
		"oselm.scorebatch_self_ns_per_batch": 1e-3, "mat.batch_ns_per_sample": tierBatch * 1e-3,
	}
	for _, c := range []struct {
		workload, total string
		terms           map[string]float64
	}{
		{"fan-steady", "trace.total_ns_per_sample", fanTerms},
		{"fan-drift", "trace.total_ns_per_sample", fanTerms},
		{"tier-fanin", "trace.total_us_per_batch", tierTerms},
	} {
		r := smoke(t, c.workload, true)
		if r.err != nil {
			t.Fatalf("%s: %v", c.workload, r.err)
		}
		var sum float64
		for name, scale := range c.terms {
			sum += scale * r.res.Metrics[name].Value
		}
		total := r.res.Metrics[c.total].Value
		if total <= 0 || math.Abs(sum-total) > 1e-9*total {
			t.Errorf("%s: self times plus unattributed sum to %v, traced total is %v", c.workload, sum, total)
		}
	}
}
