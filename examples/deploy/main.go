// Deploy: the host-train → device-run workflow end to end.
//
//  1. "Host": train and calibrate a monitor on cooling-fan spectra, then
//     serialise it — float64 for archival, float32 for the device.
//  2. "Device": load the float32 artifact and keep monitoring, with
//     byte-identical API behaviour.
//  3. "MCU": quantise the same detector to Q16.16 fixed point — the
//     integer-only pipeline an FPU-less Cortex-M0+ actually executes —
//     and compare latency and memory on the Pico cost model.
//
// Run with:
//
//	go run ./examples/deploy
package main

import (
	"bytes"
	"fmt"
	"log"

	"edgedrift"
	"edgedrift/internal/datasets/coolingfan"
	"edgedrift/internal/device"
	"edgedrift/internal/fixed"
	"edgedrift/internal/opcount"
)

func main() {
	gen := coolingfan.NewGenerator(coolingfan.DefaultParams())
	trainX, trainY := gen.TrainingSet(120)
	stream := gen.TestSudden()

	// --- Host side: train, calibrate, serialise. ---
	host, err := edgedrift.New(edgedrift.Options{
		Classes: 1, Inputs: coolingfan.Features, Hidden: 22,
		Window: 50, NRecon: 200, NUpdate: 50, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := host.Fit(trainX, trainY); err != nil {
		log.Fatal(err)
	}

	var f64, f32 bytes.Buffer
	if err := host.Save(&f64, edgedrift.Float64); err != nil {
		log.Fatal(err)
	}
	if err := host.Save(&f32, edgedrift.Float32); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host: fitted on %d spectra; artifacts: %d bytes (float64), %d bytes (float32)\n",
		len(trainX), f64.Len(), f32.Len())

	// --- Device side: load the float32 artifact and monitor. ---
	dev, err := edgedrift.LoadMonitor(&f32)
	if err != nil {
		log.Fatal(err)
	}
	for i, x := range stream.X {
		if dev.Process(x).DriftDetected {
			fmt.Printf("device: drift detected at sample %d (ground truth %d)\n", i, stream.DriftAt)
			break
		}
	}

	// --- MCU side: Q16.16 fixed point, detect-only. ---
	mcu := fixed.QuantizeDetector(host.Detector())
	var mcuOps opcount.Counter
	mcu.SetOps(&mcuOps)
	mcuSamples := 0
	for i, x := range stream.X {
		mcuSamples++
		if mcu.Process(x).DriftDetected {
			fmt.Printf("mcu:    drift detected at sample %d — flag raised for the host to retrain\n", i)
			break
		}
	}

	pico := device.PiPico()
	picoFx := device.PiPicoFixed()
	var hostOps opcount.Counter
	host.SetOps(&hostOps)
	host.Predict(stream.X[0])
	fmt.Println()
	fmt.Printf("one prediction on the Pico model:  float64 %.1f ms   Q16.16 %.2f ms\n",
		pico.Millis(hostOps), picoFx.Millis(mcuOps)/float64(mcuSamples))
	fmt.Printf("retained memory:                   float64 %.1f kB   Q16.16 %.1f kB (RAM: 264 kB)\n",
		device.KB(host.MemoryBytes()), device.KB(mcu.MemoryBytes()))
}
