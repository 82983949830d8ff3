package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/shard"
)

// trainTemplate trains the shared NSL-KDD surrogate monitor — the same
// model `driftbench serve` clones per stream — and returns its
// serialised artifact. Q16.16 shards train at f64 and quantise per
// member, so the artifact precision is the training precision.
func trainTemplate(seed uint64, prec edgedrift.Precision) ([]byte, error) {
	trainPrec := prec
	if prec == edgedrift.Fixed16 {
		trainPrec = edgedrift.Float64
	}
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: nslkdd.Features, Hidden: 22, Window: 100, Seed: seed,
		Precision: trainPrec,
	})
	if err != nil {
		return nil, err
	}
	if err := mon.Fit(ds.TrainX, ds.TrainY); err != nil {
		return nil, err
	}
	var art bytes.Buffer
	if err := mon.Save(&art, trainPrec); err != nil {
		return nil, err
	}
	return art.Bytes(), nil
}

// runShard is the `driftbench shard` subcommand: one shard process of
// the distributed serve tier. It listens for the wire batch-ingest
// protocol, clones the template for every unseen stream, and serves
// until interrupted. The "listening on" line on stdout is machine-
// scraped by `driftbench loadgen` when it spawns shards on port 0.
func runShard(args []string) int {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7600", "TCP listen address for batch ingest (port 0 picks a free port)")
	metricsAddr := fs.String("metrics-addr", "", "optional HTTP listen address for /metrics")
	template := fs.String("template", "", "path to a serialised monitor artifact; empty trains the NSL-KDD surrogate monitor")
	precision := fs.String("precision", "f64", "member numeric backend: f64, f32, or q16 (quantised from the template per member)")
	queueDepth := fs.Int("queue-depth", 64, "per-connection ingest queue bound in batches")
	shedAfter := fs.Duration("shed-after", 0, "admission policy when a queue is full: 0 blocks (pure backpressure), >0 waits then sheds, negative sheds immediately")
	shards := fs.Int("fleet-shards", 8, "fleet registry shard count")
	seed := fs.Uint64("seed", 1, "random seed for the trained template (when -template is empty)")
	pressureBudget := fs.Duration("pressure-latency-budget", 0, "per-batch ingest p99 budget; >0 runs the adaptive capacity governor, demoting members while the windowed p99 exceeds it")
	pressureInterval := fs.Duration("pressure-interval", 0, "governor sampling interval (0 means 500ms)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}

	var tmpl []byte
	if *template != "" {
		if tmpl, err = os.ReadFile(*template); err != nil {
			fmt.Fprintf(os.Stderr, "shard: %v\n", err)
			return 1
		}
	} else if tmpl, err = trainTemplate(*seed, prec); err != nil {
		fmt.Fprintf(os.Stderr, "shard: train template: %v\n", err)
		return 1
	}

	s, err := shard.New(shard.Config{
		Template:         tmpl,
		Precision:        prec,
		QueueDepth:       *queueDepth,
		ShedAfter:        *shedAfter,
		Fleet:            edgedrift.FleetConfig{Shards: *shards},
		PressureBudget:   *pressureBudget,
		PressureInterval: *pressureInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard: %v\n", err)
		return 1
	}
	fmt.Printf("shard: listening on %s\n", ln.Addr())

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, s.MetricsHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "shard: metrics: %v\n", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		<-stop
		s.Close()
	}()
	if err := s.Serve(ln); err != net.ErrClosed {
		fmt.Fprintf(os.Stderr, "shard: %v\n", err)
		return 1
	}
	return 0
}
