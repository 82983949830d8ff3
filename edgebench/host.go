package main

import (
	"runtime"
	"runtime/debug"

	"edgedrift/internal/mat"
)

// host is the block every output carries: the machine and build a
// measurement was taken on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
	F32SIMD    bool   `json:"f32_simd_kernels"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostBlock() host {
	model, avx2, fma := cpuFeatures()
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   model,
		AVX2:       avx2,
		FMA:        fma,
		F32SIMD:    mat.F32SIMD(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	if h.GOARCH == "amd64" && h.GOAMD64 == "" {
		h.GOAMD64 = "v1"
	}
	return h
}
