//go:build !amd64

package main

// cpuFeatures has no portable source off amd64.
func cpuFeatures() (model string, avx2, fma bool) { return "unknown", false, false }
