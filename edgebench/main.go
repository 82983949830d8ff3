// Command edgebench is the edgedrift benchmark. One invocation runs one
// workload for a fixed number of seconds, checks every result against a
// reference replay, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the separate traced run replays the workload's inputs through every
// layer's public entry point and reports the per-layer metrics. Run it
// from the repository root through run.sh, which builds it first:
//
//	bash edgebench/run.sh --workload tier-fanin --seed 1 --seconds 10 --trace 0
//
// README.md in this directory documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// config is one invocation's settings.
type config struct {
	seed      uint64
	dur       time.Duration // length of the timed region
	trace     bool
	traceFile string
	setups    int // set-up repetitions whose median is setup_s
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"fan-steady": func(c config) (*outcome, error) { return runFan(c, false) },
	"fan-drift":  func(c config) (*outcome, error) { return runFan(c, true) },
	"tier-fanin": runTier,
}

// metricDef names a metric and its unit. An end-to-end metric is
// emitted in the result line when BENCHMARK.json holds a bound for it:
// it is never zero and steady from run to run on a shared host. The
// others are printed above the result line. Wall-clock throughput and
// the p99 swing by a quarter to a third between runs with the host's
// load, more than any bound a regression check could use, so they are
// printed, and cpu_us_per_sample and the median stand for them.
type metricDef struct {
	name, unit string
	emitted    bool
}

var endToEndMetrics = []metricDef{
	{"samples_per_s", "1/s", false},
	{"latency_p50_us", "us", true},
	{"latency_p99_us", "us", false},
	{"latency_samples", "count", false},
	{"cpu_us_per_sample", "us", true},
	{"alloc_bytes_per_sample", "bytes", false},
	{"retained_bytes", "bytes", true},
	{"heap_inuse_bytes", "bytes", true},
	{"detect_delay_p50_samples", "samples", false},
	{"detect_delay_max_samples", "samples", false},
	{"missed_drifts", "count", false},
	{"false_alarms", "count", false},
	{"result_mismatches", "count", false},
	{"failed_ratio", "ratio", false},
	{"setup_s", "s", true},
}

// perLayerMetrics are every layer's metrics across the workloads. A
// traced run emits all of them; a layer a workload does not run reads 0.
var perLayerMetrics = []metricDef{
	{"mat.score_ns_per_sample", "ns", true},
	{"mat.train_ns_per_sample", "ns", true},
	{"mat.batch_ns_per_sample", "ns", true},
	{"oselm.score_ns_per_sample", "ns", true},
	{"oselm.score_self_ns_per_sample", "ns", true},
	{"oselm.train_ns_per_sample", "ns", true},
	{"oselm.train_self_ns_per_sample", "ns", true},
	{"oselm.scorebatch_ns_per_batch", "ns", true},
	{"oselm.scorebatch_self_ns_per_batch", "ns", true},
	{"model.self_ns_per_sample", "ns", true},
	{"model.batch_self_ns_per_batch", "ns", true},
	{"core.self_ns_per_sample", "ns", true},
	{"core.batch_self_ns_per_batch", "ns", true},
	{"core.window_samples", "count", true},
	{"core.recon_samples", "count", true},
	{"edgedrift.self_ns_per_sample", "ns", true},
	{"edgedrift.batch_self_ns_per_batch", "ns", true},
	{"fleet.self_ns_per_batch", "ns", true},
	{"wire.encode_ns_per_batch", "ns", true},
	{"wire.decode_ns_per_batch", "ns", true},
	{"wire.ack_encode_ns_per_batch", "ns", true},
	{"wire.ack_parse_ns_per_batch", "ns", true},
	{"wire.decode_allocs_per_batch", "count", true},
	{"wire.bytes_per_sample", "bytes", true},
	{"shard.self_us_per_batch", "us", true},
	{"shard.compute_p99_ns", "ns", true},
	{"shard.batches", "count", true},
	{"shard.shed_samples", "count", true},
	{"shard.queue_depth", "count", true},
	{"router.self_us_per_batch", "us", true},
	{"unattributed_ns_per_sample", "ns", true},
	{"unattributed_us_per_batch", "us", true},
	{"trace.total_ns_per_sample", "ns", true},
	{"trace.total_us_per_batch", "us", true},
	{"trace.requests", "count", true},
	{"trace.overhead_pct", "%", true},
}

// outcome is what a workload run measured and checked.
type outcome struct {
	workload  string
	params    map[string]any // the workload's parameters, for the header
	attempted int64          // samples offered in the measured region
	failed    int64          // samples shed, rejected or answered with an error
	failures  []string       // correctness gates that did not hold
	vals      map[string]float64
	spans     []span // traced run: the spans kept for the trace file
}

func newOutcome(params map[string]any) *outcome {
	return &outcome{params: params, vals: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.vals[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("edgebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fan-steady, fan-drift or tier-fanin")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "length of the timed region in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "edgebench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:      *seed,
		dur:       time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		traceFile: filepath.Join(".bench_build", "trace-"+*name+".jsonl"),
		setups:    5,
	}
	code, err := runWorkload(stdout, *name, w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgebench: %s: %v\n", *name, err)
		return 1
	}
	return code
}

// runWorkload runs one workload and prints its report; the exit code is
// 1 when a correctness gate failed.
func runWorkload(stdout io.Writer, name string, w func(config) (*outcome, error), cfg config) (int, error) {
	out, err := w(cfg)
	if err != nil {
		return 1, err
	}
	out.workload = name
	h := hostBlock()
	if cfg.trace {
		if err := writeTrace(cfg.traceFile, h, cfg.seed, out); err != nil {
			return 1, err
		}
	}
	if err := report(stdout, h, cfg, out); err != nil {
		return 1, err
	}
	if len(out.failures) > 0 {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the host block, every metric by name and unit, the
// correctness gates, and the result line last.
func report(w io.Writer, h host, cfg config, out *outcome) error {
	header, err := json.Marshal(map[string]any{
		"host": h, "workload": out.workload, "seed": cfg.seed,
		"seconds": cfg.dur.Seconds(), "trace": cfg.trace, "params": out.params,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", header)
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := out.vals[d.name]
		switch {
		case !ok && d.emitted && !cfg.trace:
			return fmt.Errorf("metric %s was not measured", d.name)
		case !ok && !cfg.trace:
			continue // measured only on other workloads
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		shown := "reported"
		if d.emitted {
			res.Metrics[d.name] = jsonMetric{v, d.unit}
			shown = "emitted"
		}
		fmt.Fprintf(w, "%-9s %-36s %16.6g %s\n", shown, d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no sample was attempted")
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "FAILED    %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
