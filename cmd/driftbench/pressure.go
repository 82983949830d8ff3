package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"edgedrift/internal/eval"
)

// runPressure is the `driftbench pressure` subcommand: the forced-
// degradation matrix behind the adaptive capacity governor. Each Table
// 2/3 stream is replayed at every degradation level the governor can
// force (f64 baseline, demoted-f32, demoted-q16), reporting throughput
// and detection-quality deltas, gated on the demote→promote off-path
// being bit-exactly free. -json writes the BENCH_10 artifact tracked by
// CI; a failed golden gate is a non-zero exit even when the matrix
// itself completed.
func runPressure(args []string) int {
	fs := flag.NewFlagSet("pressure", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed for datasets and monitors")
	jsonPath := fs.String("json", "", "also write the matrix as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rep, err := eval.PressureMatrix(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pressure: %v\n", err)
		return 1
	}

	fmt.Printf("pressure: forced-degradation matrix, seed %d\n", rep.Seed)
	fmt.Printf("%-12s %-5s %14s %12s %8s %8s %12s\n",
		"stream", "level", "samples/s", "accuracy", "Δacc", "delay", "retained kB")
	for _, p := range rep.Points {
		acc, dacc := "-", "-"
		if p.AccuracyPct >= 0 {
			acc = fmt.Sprintf("%.2f%%", p.AccuracyPct)
			dacc = fmt.Sprintf("%+.2f", p.AccuracyDeltaPct)
		}
		delay := "-"
		if p.Delay >= 0 {
			delay = fmt.Sprintf("%d", p.Delay)
		}
		fmt.Printf("%-12s %-5s %14.0f %12s %8s %8s %12.1f\n",
			p.Stream, p.Level, p.SamplesPerSec, acc, dacc, delay, float64(p.MemoryBytes)/1024)
	}
	fmt.Printf("golden gate (demote→promote off-path bit-exact): %v\n", rep.GoldenGateOK)

	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pressure: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pressure: %v\n", err)
			return 1
		}
	}
	if !rep.GoldenGateOK {
		fmt.Fprintln(os.Stderr, "pressure: golden gate FAILED: a demote→promote excursion perturbed the full-precision path")
		return 1
	}
	return 0
}
