// Command driftbench regenerates the paper's tables and figures.
//
// Usage:
//
//	driftbench -exp table2            # one experiment
//	driftbench -exp all               # everything, paper order
//	driftbench -exp all -parallel 4   # fan experiments out over 4 workers
//	driftbench -exp fig4 -csv out/    # also dump CSV series/tables
//	driftbench -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//	driftbench -exp table2 -precision f32   # same experiment on the float32 backend
//	driftbench -list                  # show the experiment registry
//	driftbench fleet -streams 64      # multi-stream fleet throughput
//	driftbench fleet -precision q16   # fleet of Q16.16 fixed-point members
//	driftbench serve -addr :9100      # replay streams, serve /metrics + /health
//	driftbench shard -addr :7600      # one shard of the distributed serve tier
//	driftbench route -shards host1:7600,host2:7600  # consistent-hash router
//	driftbench loadgen -shard-range 1,2,4 -json BENCH_7.json  # tier scaling curve
//	driftbench coop -json BENCH_8.json  # cooperative vs per-stream drift recovery
//	driftbench scenarios -json BENCH_9.json  # label-delay matrix: hybrid detection + model pool
//	driftbench pressure -json BENCH_10.json  # forced-degradation matrix + golden gate
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"edgedrift"
	"edgedrift/internal/eval"
)

// main delegates to run so that deferred cleanup — stopping the CPU
// profiler and closing profile files — executes on every exit path.
// Calling os.Exit directly from the work path would skip the defers and
// silently truncate the profiles exactly when an experiment fails, the
// case most worth profiling.
func main() {
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		os.Exit(runFleet(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		os.Exit(runShard(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "route" {
		os.Exit(runRoute(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		os.Exit(runLoadgen(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "coop" {
		os.Exit(runCoop(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		os.Exit(runScenarios(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "pressure" {
		os.Exit(runPressure(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (fig1, fig4, table2..table6, ablation-*, ext-*), 'all', 'ablations', or 'extensions'")
	precision := flag.String("precision", "f64", "numeric backend the experiment models compute at (f64 or f32; q16 is inference-only)")
	seed := flag.Uint64("seed", 1, "random seed for the whole experiment")
	csvDir := flag.String("csv", "", "directory to write CSV tables/series into")
	list := flag.Bool("list", false, "list available experiments and exit")
	parallel := flag.Int("parallel", 1, "experiments evaluated concurrently (1 keeps host wall-clock columns contention-free; 0 means GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	flag.Parse()

	if *list {
		for _, e := range eval.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		for _, e := range eval.RegistryAblations() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		for _, e := range eval.RegistryExtensions() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	prec, err := edgedrift.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown precision %q; use f64, f32 or q16\n", *precision)
		return 2
	}
	if err := eval.SetPrecision(prec); err != nil {
		// q16 lands here: the experiments train models, and the Q16.16
		// backend is inference-only (quantised from a fitted monitor).
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}

	var todo []eval.Experiment
	switch *exp {
	case "all":
		todo = eval.Registry()
	case "ablations":
		todo = eval.RegistryAblations()
	case "extensions":
		todo = eval.RegistryExtensions()
	default:
		e, ok := eval.LookupAny(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 2
		}
		todo = []eval.Experiment{e}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	if err := runAll(todo, *seed, *parallel, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}

	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeMemProfile snapshots the heap to path, reporting close errors so
// a full disk does not pass silently.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained state
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll evaluates the experiments — concurrently when parallel != 1 —
// and prints their tables in registry order regardless of completion
// order. Each experiment's outcome lands in its pre-assigned slot; only
// printing and CSV writing happen after the pool drains.
func runAll(todo []eval.Experiment, seed uint64, parallel int, csvDir string) error {
	type timed struct {
		out     *eval.Outcome
		elapsed time.Duration
	}
	results := make([]timed, len(todo))
	pool := eval.NewPool(parallel)
	for i, e := range todo {
		i, e := i, e
		pool.Go(func() error {
			start := time.Now()
			out := e.Run(seed)
			results[i] = timed{out: out, elapsed: time.Since(start)}
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		return err
	}
	for i, e := range todo {
		fmt.Printf("== %s (%s, %.1fs)\n\n", e.ID, e.Title, results[i].elapsed.Seconds())
		for _, t := range results[i].out.Tables {
			fmt.Println(t.String())
		}
		if csvDir != "" {
			if err := writeCSV(csvDir, e.ID, results[i].out); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

func writeCSV(dir, id string, out *eval.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range out.Tables {
		name := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", id, i))
		if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	for _, f := range out.Figures {
		name := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, f.Name))
		if err := os.WriteFile(name, []byte(eval.SeriesCSV(f.XLabel, f.Series)), 0o644); err != nil {
			return err
		}
	}
	return nil
}
