package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
)

// newServeMux wires a fleet's observability endpoints: /metrics serves
// the Prometheus text exposition, /health serves a JSON health snapshot
// (200 when every member's model state is finite, 503 otherwise), and
// /trace serves each instrumented stream's retained drift trace.
func newServeMux(f *edgedrift.Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Render into a buffer first so a mid-write error cannot leave a
		// truncated body behind a 200 status.
		var buf bytes.Buffer
		if err := f.WriteMetrics(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		h := f.Health()
		code := http.StatusOK
		if !h.Healthy() {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(struct {
			Healthy bool
			Summary string
			edgedrift.HealthSnapshot
		}{h.Healthy(), h.String(), h})
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.Traces())
	})
	return mux
}

// runServe is the `driftbench serve` subcommand: it builds an
// instrumented fleet the same way `driftbench fleet` does — one monitor
// trained on the NSL-KDD surrogate, cloned per stream through its
// serialised artifact — then replays the interleaved test streams in a
// loop while serving /metrics, /health and /trace over HTTP. It is the
// live end-to-end demo of the observability layer: point a Prometheus
// scraper (or curl) at the address while the fleet churns.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	streams := fs.Int("streams", 8, "independent streams (NSL-KDD test set interleaved round-robin)")
	shards := fs.Int("shards", 8, "fleet registry shard count")
	batch := fs.Int("batch", 256, "samples per ProcessBatch call")
	seed := fs.Uint64("seed", 1, "random seed for the shared trained monitor")
	precision := fs.String("precision", "f64", "member numeric backend: f64, f32, or q16 (fixed-point inference port)")
	addr := fs.String("addr", "127.0.0.1:9100", "HTTP listen address")
	sampleEvery := fs.Int("sample-every", 64, "time every k-th sample per stream (0 disables latency sampling)")
	traceDepth := fs.Int("trace-depth", 64, "retained drift detections per stream")
	logHealth := fs.Duration("log-health", 30*time.Second, "cadence of the structured health log line (0 disables)")
	duration := fs.Duration("duration", 0, "stop after this long (0 runs until interrupted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *streams < 1 || *batch < 1 {
		fmt.Fprintln(os.Stderr, "serve: -streams and -batch must be >= 1")
		return 2
	}
	prec, perr := edgedrift.ParsePrecision(*precision)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "serve: unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}

	// Same cloning scheme as `driftbench fleet`: q16 members are
	// quantised from an f64-trained clone, f64/f32 train directly.
	art, err := trainTemplate(*seed, prec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: train shared monitor: %v\n", err)
		return 1
	}
	ds := nslkdd.Generate(nslkdd.DefaultParams())

	f := edgedrift.NewFleet(edgedrift.FleetConfig{
		Shards: *shards, EventBuffer: 4 * *streams,
		Instrument: true, SampleEvery: *sampleEvery, TraceDepth: *traceDepth,
	})
	ids, parts, err := addMembers(f, art, prec, ds.TestX, *streams)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	if *logHealth > 0 {
		stop := edgedrift.StartHealthLogger(*logHealth, f.Health, func(line string) { log.Print(line) })
		defer stop()
	}

	// Replay each stream on its own goroutine, looping over its slice of
	// the interleaved test set until the context ends.
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(id string, part [][]float64) {
			defer wg.Done()
			for ctx.Err() == nil {
				for lo := 0; lo < len(part) && ctx.Err() == nil; lo += *batch {
					hi := min(lo+*batch, len(part))
					if _, err := f.ProcessBatch(id, part[lo:hi]); err != nil {
						log.Printf("serve: %s: %v", id, err)
						return
					}
				}
			}
		}(ids[i], parts[i])
	}

	srv := &http.Server{Addr: *addr, Handler: newServeMux(f)}
	go func() {
		<-ctx.Done()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		srv.Shutdown(shutCtx)
	}()
	log.Printf("serve: %d %s streams replaying; /metrics /health /trace on http://%s", *streams, prec, *addr)
	err = srv.ListenAndServe()
	// ListenAndServe returns on bind failure too — cancel the replay
	// context before waiting, or the stream goroutines spin forever and
	// this never exits.
	cancel()
	wg.Wait()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}
	return 0
}
