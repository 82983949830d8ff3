// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus the ablation benches for the design choices DESIGN.md calls out.
//
// Each benchmark regenerates its artifact end to end — dataset synthesis,
// model training, calibration, the full evaluation stream — and reports
// the headline quantities as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// is the single command that re-derives the paper's evaluation. The
// rendered tables themselves are printed by `go run ./cmd/driftbench`.
package edgedrift_test

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"edgedrift"
	"edgedrift/internal/datasets/nslkdd"
	"edgedrift/internal/eval"
)

// reportCell parses a numeric table cell into a benchmark metric. The
// single legitimate non-numeric cell is "-" — the tables' explicit
// no-value marker (e.g. a drift that was never detected) — which is
// skipped; any other unparsable content means the table generator
// regressed and fails the benchmark instead of silently dropping the
// metric.
func reportCell(b *testing.B, t *eval.Table, row, col int, unit string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("table %q lacks cell (%d,%d)", t.Title, row, col)
	}
	cell := t.Rows[row][col]
	if cell == "-" {
		return
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("table %q cell (%d,%d) = %q is neither numeric nor \"-\": %v", t.Title, row, col, cell, err)
	}
	b.ReportMetric(v, unit)
}

func runExperiment(b *testing.B, id string) *eval.Outcome {
	b.Helper()
	e, ok := eval.LookupAny(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var out *eval.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = e.Run(1)
	}
	b.StopTimer()
	if out == nil || len(out.Tables) == 0 {
		b.Fatalf("experiment %q produced no tables", id)
	}
	return out
}

// BenchmarkFigure1DriftTypes regenerates the four drift-type streams of
// Figure 1 and reports the sudden stream's post-drift mean (≈4 by
// construction).
func BenchmarkFigure1DriftTypes(b *testing.B) {
	out := runExperiment(b, "fig1")
	reportCell(b, out.Tables[0], 0, 3, "sudden-end-mean")
}

// BenchmarkFigure3CentroidGeometry regenerates the centroid-distance
// trail of the algorithm illustration.
func BenchmarkFigure3CentroidGeometry(b *testing.B) {
	out := runExperiment(b, "fig3")
	reportCell(b, out.Tables[0], 3, 1, "drift-samples-to-detect")
}

// BenchmarkExtensionFixedPoint regenerates the Q16.16 deployment
// comparison.
func BenchmarkExtensionFixedPoint(b *testing.B) {
	out := runExperiment(b, "ext-fixedpoint")
	reportCell(b, out.Tables[0], 1, 2, "fixed-ms-per-sample")
}

// BenchmarkFigure4AccuracyTrace regenerates the five accuracy-vs-time
// curves on the NSL-KDD surrogate and reports each method's overall
// accuracy.
func BenchmarkFigure4AccuracyTrace(b *testing.B) {
	out := runExperiment(b, "fig4")
	t := out.Tables[0]
	reportCell(b, t, 0, 1, "quanttree-acc-%")
	reportCell(b, t, 2, 1, "baseline-acc-%")
	reportCell(b, t, 4, 1, "proposed-acc-%")
	if len(out.Figures) == 0 || len(out.Figures[0].Series) != 5 {
		b.Fatal("figure 4 must carry five series")
	}
}

// BenchmarkTable2AccuracyDelay regenerates Table 2 (accuracy and
// detection delay of the five methods on NSL-KDD).
func BenchmarkTable2AccuracyDelay(b *testing.B) {
	out := runExperiment(b, "table2")
	t := out.Tables[0]
	reportCell(b, t, 0, 2, "quanttree-delay")
	reportCell(b, t, 4, 1, "proposed-w100-acc-%")
	reportCell(b, t, 4, 2, "proposed-w100-delay")
	reportCell(b, t, 6, 2, "proposed-w1000-delay")
}

// BenchmarkTable3WindowDelay regenerates Table 3 (window size vs delay
// on the three cooling-fan drift types).
func BenchmarkTable3WindowDelay(b *testing.B) {
	out := runExperiment(b, "table3")
	t := out.Tables[0]
	reportCell(b, t, 0, 1, "w10-sudden-delay")
	reportCell(b, t, 2, 1, "w150-sudden-delay")
	reportCell(b, t, 0, 2, "w10-gradual-delay")
	// Row 2 col 3 is "-" (reoccurring escapes W=150); reportCell skips it
	// after verifying the cell exists.
	reportCell(b, t, 2, 3, "w150-reoccurring-delay")
}

// BenchmarkTable4Memory regenerates Table 4 (memory utilisation of the
// three detectors in the D=511 configuration).
func BenchmarkTable4Memory(b *testing.B) {
	out := runExperiment(b, "table4")
	t := out.Tables[0]
	reportCell(b, t, 0, 1, "quanttree-kB")
	reportCell(b, t, 1, 1, "spll-kB")
	reportCell(b, t, 2, 1, "proposed-kB")
}

// BenchmarkTable5ExecutionTime regenerates Table 5 (modelled Raspberry
// Pi 4 execution time over the 700-sample cooling-fan stream).
func BenchmarkTable5ExecutionTime(b *testing.B) {
	out := runExperiment(b, "table5")
	t := out.Tables[0]
	reportCell(b, t, 0, 1, "quanttree-s")
	reportCell(b, t, 1, 1, "spll-s")
	reportCell(b, t, 2, 1, "baseline-s")
	reportCell(b, t, 3, 1, "proposed-s")
}

// BenchmarkTable6PicoBreakdown regenerates Table 6 (per-sample stage
// breakdown on the Raspberry Pi Pico model).
func BenchmarkTable6PicoBreakdown(b *testing.B) {
	out := runExperiment(b, "table6")
	t := out.Tables[0]
	reportCell(b, t, 0, 1, "label-prediction-ms")
	reportCell(b, t, 1, 1, "distance-ms")
	reportCell(b, t, 5, 1, "coord-update-ms")
}

// Ablation benches (DESIGN.md §4).

func BenchmarkAblationCentroidUpdate(b *testing.B) {
	out := runExperiment(b, "ablation-centroid")
	reportCell(b, out.Tables[0], 0, 2, "running-mean-delay")
	reportCell(b, out.Tables[0], 2, 2, "ewma-delay")
}

func BenchmarkAblationDistanceMetric(b *testing.B) {
	out := runExperiment(b, "ablation-distance")
	reportCell(b, out.Tables[0], 0, 1, "l1-acc-%")
	reportCell(b, out.Tables[0], 1, 1, "l2-acc-%")
}

func BenchmarkAblationErrorGate(b *testing.B) {
	out := runExperiment(b, "ablation-gate")
	reportCell(b, out.Tables[0], 0, 3, "gated-dist-invocations")
	reportCell(b, out.Tables[0], 1, 3, "always-dist-invocations")
}

func BenchmarkAblationModelReset(b *testing.B) {
	out := runExperiment(b, "ablation-reset")
	reportCell(b, out.Tables[0], 0, 2, "reset-postdrift-acc-%")
	reportCell(b, out.Tables[0], 1, 2, "continue-postdrift-acc-%")
}

func BenchmarkAblationForgettingSweep(b *testing.B) {
	out := runExperiment(b, "ablation-forgetting")
	reportCell(b, out.Tables[0], 2, 1, "alpha097-acc-%")
}

func BenchmarkAblationHiddenWidth(b *testing.B) {
	out := runExperiment(b, "ablation-hidden")
	reportCell(b, out.Tables[0], 2, 3, "h22-pico-ms-per-pred")
}

func BenchmarkAblationMultiWindow(b *testing.B) {
	out := runExperiment(b, "ablation-multiwindow")
	reportCell(b, out.Tables[0], 2, 1, "quorum1-sudden-delay")
	reportCell(b, out.Tables[0], 3, 1, "quorum2-sudden-delay")
}

// BenchmarkScorePrecision measures the per-sample scoring hot path of
// each numeric backend — float64, float32, and the Q16.16 fixed-point
// port — over the same NSL-KDD replay. The sub-benchmark names are
// benchstat-friendly: run it on two commits and
//
//	benchstat old.txt new.txt
//
// compares the backends cell by cell. `driftbench pressure -json`
// reports the same backends' throughput and retained memory as the
// BENCH_10 CI artifact. The retained state of each backend is reported
// as the state-bytes metric (Monitor.MemoryBytes /
// Streaming.MemoryBytes).
func BenchmarkScorePrecision(b *testing.B) {
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	train := func(b *testing.B, p edgedrift.Precision) *edgedrift.Monitor {
		b.Helper()
		mon, err := edgedrift.New(edgedrift.Options{
			Classes: 2, Inputs: nslkdd.Features, Hidden: 22, Window: 100, Seed: 1,
			Precision: p,
		})
		if err == nil {
			err = mon.Fit(ds.TrainX, ds.TrainY)
		}
		if err != nil {
			b.Fatalf("train %v monitor: %v", p, err)
		}
		return mon
	}
	backends := []struct {
		name string
		make func(b *testing.B) edgedrift.Streaming
	}{
		{"f64", func(b *testing.B) edgedrift.Streaming { return train(b, edgedrift.Float64) }},
		{"f32", func(b *testing.B) edgedrift.Streaming { return train(b, edgedrift.Float32) }},
		{"q16", func(b *testing.B) edgedrift.Streaming {
			q, err := train(b, edgedrift.Float64).QuantizeQ16()
			if err != nil {
				b.Fatalf("quantize: %v", err)
			}
			return q
		}},
	}
	for _, bc := range backends {
		b.Run(bc.name, func(b *testing.B) {
			s := bc.make(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Process(ds.TestX[i%len(ds.TestX)])
			}
			b.StopTimer()
			b.ReportMetric(float64(s.MemoryBytes()), "state-bytes")
		})
	}
}

// nslkddArtifact fits the NSL-KDD monitor at the serve tier's member
// shape (D=38, H=22, C=2) and returns its Save bytes.
func nslkddArtifact(b testing.TB) []byte {
	b.Helper()
	ds := nslkdd.Generate(nslkdd.DefaultParams())
	mon, err := edgedrift.New(edgedrift.Options{
		Classes: 2, Inputs: nslkdd.Features, Hidden: 22, Window: 100, Seed: 1,
	})
	if err == nil {
		err = mon.Fit(ds.TrainX, ds.TrainY)
	}
	var art bytes.Buffer
	if err == nil {
		err = mon.Save(&art, edgedrift.Float64)
	}
	if err != nil {
		b.Fatal(err)
	}
	return art.Bytes()
}

// BenchmarkLoadMonitor times parsing one member from its artifact, the
// path migration import and LoadFleet take.
func BenchmarkLoadMonitor(b *testing.B) {
	art := nslkddArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgedrift.LoadMonitor(bytes.NewReader(art)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorClone times creating one member from a parsed
// template, the path a shard takes for each stream it has not seen.
func BenchmarkMonitorClone(b *testing.B) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(nslkddArtifact(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmpl.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadFleet times loading a saved fleet of 1024 NSL-KDD
// members cloned from one template: every member is decoded from its
// payload and, at registration, rebound to a peer's copy of the shared
// projection.
func BenchmarkLoadFleet(b *testing.B) {
	tmpl, err := edgedrift.LoadMonitor(bytes.NewReader(nslkddArtifact(b)))
	if err != nil {
		b.Fatal(err)
	}
	f := edgedrift.NewFleet(edgedrift.FleetConfig{})
	for i := 0; i < 1024; i++ {
		m, err := tmpl.Clone()
		if err == nil {
			err = f.Add(fmt.Sprintf("stream-%04d", i), m)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	var art bytes.Buffer
	if err := f.Save(&art, edgedrift.Float64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgedrift.LoadFleet(bytes.NewReader(art.Bytes()), edgedrift.FleetConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
