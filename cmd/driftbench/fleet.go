package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/eval"
)

// runFleet is the `driftbench fleet` subcommand: it replays the NSL-KDD
// surrogate as K interleaved streams (sample i goes to stream i mod K),
// registers one trained monitor per stream in a Fleet, and measures
// per-stream and aggregate throughput while drift events fan in on the
// single subscriber channel. One monitor is trained once, its artifact
// is loaded once and the loaded template is cloned K times, so fleet
// setup cost is one deserialisation, not K trainings. The fleet's
// memory is read twice: after the members are created, when every clone
// still shares the template's learned state and trained centroids, and
// after the replay, when the streams that drifted hold private copies.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	streams := fs.Int("streams", 8, "independent streams (NSL-KDD test set interleaved round-robin)")
	shards := fs.Int("shards", 8, "fleet registry shard count")
	parallel := fs.Int("parallel", 0, "streams processed concurrently (0 means GOMAXPROCS)")
	batch := fs.Int("batch", 512, "samples per ProcessBatch call")
	seed := fs.Uint64("seed", 1, "random seed for the shared trained monitor")
	precision := fs.String("precision", "f64", "member numeric backend: f64, f32, or q16 (fixed-point inference port)")
	jsonPath := fs.String("json", "", "also write the throughput summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *streams < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "fleet: -streams and -batch must be >= 1")
		return 2
	}
	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}

	art, err := trainTemplate(*seed, prec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: train shared monitor: %v\n", err)
		return 1
	}
	ds := nslkdd.Generate(nslkdd.DefaultParams())

	f := edgedrift.NewFleet(edgedrift.FleetConfig{
		Shards: *shards, EventBuffer: 4 * *streams,
	})
	events := f.Events()
	ids, parts, err := addMembers(f, art, prec, ds.TestX, *streams)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}

	created := f.MemoryBytes()

	durs := make([]time.Duration, *streams)
	pool := eval.NewPool(*parallel)
	wall := time.Now()
	for i := range ids {
		i := i
		pool.Go(func() error {
			part := parts[i]
			start := time.Now()
			for lo := 0; lo < len(part); lo += *batch {
				hi := lo + *batch
				if hi > len(part) {
					hi = len(part)
				}
				if _, err := f.ProcessBatch(ids[i], part[lo:hi]); err != nil {
					return err
				}
			}
			durs[i] = time.Since(start)
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	elapsed := time.Since(wall)

	rates := make([]float64, 0, *streams)
	for i, d := range durs {
		if d > 0 && len(parts[i]) > 0 {
			rates = append(rates, float64(len(parts[i]))/d.Seconds())
		}
	}
	sort.Float64s(rates)
	fanned := 0
	for {
		select {
		case <-events:
			fanned++
			continue
		default:
		}
		break
	}
	fired := 0
	var drifts uint64
	for _, id := range ids {
		_, d, err := f.MemberStats(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		if d > 0 {
			fired++
		}
		drifts += d
	}
	h := f.Health()

	fmt.Printf("fleet: %d streams over %d shards, %d worker(s), %d-sample batches, %s members\n",
		*streams, *shards, poolWorkers(*parallel), *batch, prec)
	fmt.Printf("replayed %d NSL-KDD samples (%d per stream, drift at sample %d of the interleaved stream)\n",
		len(ds.TestX), len(parts[0]), ds.DriftAt)
	fmt.Printf("aggregate throughput: %.0f samples/s (wall %.3fs)\n",
		float64(len(ds.TestX))/elapsed.Seconds(), elapsed.Seconds())
	if len(rates) > 0 {
		fmt.Printf("per-stream throughput: min %.0f, median %.0f, max %.0f samples/s\n",
			rates[0], rates[len(rates)/2], rates[len(rates)-1])
	}
	fmt.Printf("drift: %d of %d streams fired, %d detections total, %d events fanned in, %d dropped\n",
		fired, *streams, drifts, fanned, f.EventsDropped())
	fmt.Printf("fleet memory: %.1f kB retained when created, %.1f kB after the replay; %s\n",
		float64(created)/1024, float64(f.MemoryBytes())/1024, h.String())

	if *jsonPath != "" {
		sum := fleetSummary{
			Streams: *streams, Shards: *shards, Workers: poolWorkers(*parallel), Batch: *batch,
			Precision: prec.String(),
			Samples:   len(ds.TestX),
			WallSecs:  elapsed.Seconds(),
			Aggregate: float64(len(ds.TestX)) / elapsed.Seconds(),
			Drifts:    drifts, StreamsFired: fired,
			EventsFanned: fanned, EventsDropped: f.EventsDropped(),
			MemoryBytesCreated: created, MemoryBytes: f.MemoryBytes(), Healthy: h.Healthy(),
		}
		if len(rates) > 0 {
			sum.PerStreamMin = rates[0]
			sum.PerStreamMedian = rates[len(rates)/2]
			sum.PerStreamMax = rates[len(rates)-1]
		}
		if err := writeFleetJSON(*jsonPath, sum); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
	}
	return 0
}

// addMembers registers n members in f, named stream-000, stream-001,
// …: each a clone of the template artifact, or its Q16.16 port when
// prec is Fixed16 (the artifact is then the f64 model it is quantised
// from). The template is parsed once, so setup costs one
// deserialisation, not n. It also splits xs round-robin into one part
// per member: sample i goes to stream i mod n.
func addMembers(f *edgedrift.Fleet, art []byte, prec edgedrift.Precision, xs [][]float64, n int) (ids []string, parts [][][]float64, err error) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(art))
	if err != nil {
		return nil, nil, fmt.Errorf("load shared monitor: %w", err)
	}
	parts = make([][][]float64, n)
	for i, x := range xs {
		parts[i%n] = append(parts[i%n], x)
	}
	ids = make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%03d", i)
		if prec == edgedrift.Fixed16 {
			st, err := tmpl.QuantizeQ16()
			if err != nil {
				return nil, nil, fmt.Errorf("quantize member: %w", err)
			}
			if err := f.AddStage(ids[i], st); err != nil {
				return nil, nil, err
			}
			continue
		}
		m, err := tmpl.Clone()
		if err != nil {
			return nil, nil, fmt.Errorf("clone monitor: %w", err)
		}
		if err := f.Add(ids[i], m); err != nil {
			return nil, nil, err
		}
	}
	return ids, parts, nil
}

// fleetSummary is the machine-readable form of the fleet benchmark
// report, written by -json for CI artifact tracking.
type fleetSummary struct {
	Streams         int     `json:"streams"`
	Shards          int     `json:"shards"`
	Workers         int     `json:"workers"`
	Batch           int     `json:"batch"`
	Precision       string  `json:"precision"`
	Samples         int     `json:"samples"`
	WallSecs        float64 `json:"wall_secs"`
	Aggregate       float64 `json:"aggregate_samples_per_sec"`
	PerStreamMin    float64 `json:"per_stream_min_samples_per_sec"`
	PerStreamMedian float64 `json:"per_stream_median_samples_per_sec"`
	PerStreamMax    float64 `json:"per_stream_max_samples_per_sec"`
	Drifts          uint64  `json:"drifts"`
	StreamsFired    int     `json:"streams_fired"`
	EventsFanned    int     `json:"events_fanned"`
	EventsDropped   uint64  `json:"events_dropped"`
	// MemoryBytesCreated is Fleet.MemoryBytes once every member is
	// created, before the replay; MemoryBytes is read after it.
	MemoryBytesCreated int  `json:"memory_bytes_created"`
	MemoryBytes        int  `json:"memory_bytes"`
	Healthy            bool `json:"healthy"`
}

func writeFleetJSON(path string, sum fleetSummary) error {
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// poolWorkers mirrors eval.NewPool's worker defaulting for display.
func poolWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
