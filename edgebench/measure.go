package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"edgedrift"
	"edgedrift/internal/stats"
)

// series is an append-only log of uint64 values kept in fixed-size
// chunks, so recording inside the timed region never copies what is
// already stored. allocated counts the bytes its chunks took, which the
// allocation metric subtracts: the log is the benchmark's, not the
// system's.
type series struct {
	chunks    [][]uint64
	n         int
	allocated int64
}

const chunkLen = 1 << 16

func (s *series) add(v uint64) {
	if s.n%chunkLen == 0 {
		s.chunks = append(s.chunks, make([]uint64, chunkLen))
		s.allocated += chunkLen * 8
	}
	s.chunks[s.n/chunkLen][s.n%chunkLen] = v
	s.n++
}

func (s *series) at(i int) uint64 { return s.chunks[i/chunkLen][i%chunkLen] }

// latencyQuantilesUs returns the q-quantiles of a series of nanosecond
// durations, in microseconds.
func latencyQuantilesUs(s *series, qs ...float64) []float64 {
	xs := make([]float64, 0, s.n)
	for i := 0; i < s.n; i++ {
		xs = append(xs, float64(s.at(i))/1e3)
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.QuantileSorted(xs, q)
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the runtime's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapInuseAfterGC forces a collection and reports the bytes of live
// heap objects (HeapAlloc), which unlike the runtime's span accounting
// does not move with how the allocator happened to pack them.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// region measures the process-wide cost of a timed region: wall time,
// CPU time and heap allocation.
type region struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startRegion() region {
	runtime.GC()
	return region{cpu: cpuTime(), alloc: totalAlloc(), start: time.Now()}
}

// end returns the region's CPU time and allocated bytes; the caller
// owns the wall time, which ends at its last completed request.
func (r region) end() (cpu time.Duration, alloc uint64) {
	return cpuTime() - r.cpu, totalAlloc() - r.alloc
}

// setUp builds a workload's state n times, tearing down every build but
// the last, and returns the last build with the median build time.
// One build is short and noisy; the median of several is the set-up
// time a later change is held to.
func setUp[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var st T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && drop != nil {
			drop(st)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return st, stats.QuantileSorted(times, 0.5), nil
}

// mix is the splitmix64 finaliser, the digests' mixing step.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// resultDigest fingerprints every field of a result bit-exactly, so two
// results digest equal only if they are bit-identical.
func resultDigest(r edgedrift.Result) uint64 {
	flags := uint64(r.Phase) << 2
	if r.DriftDetected {
		flags |= 1
	}
	if r.Rejected {
		flags |= 2
	}
	h := mix(math.Float64bits(r.Score) ^ uint64(uint32(r.Label))<<32)
	h = mix(h ^ math.Float64bits(r.Dist))
	return mix(h ^ flags)
}

// inputDigest accumulates a fingerprint of generated inputs.
type inputDigest uint64

func (d *inputDigest) rows(xs [][]float64) {
	for _, x := range xs {
		for _, v := range x {
			*d = inputDigest(mix(uint64(*d) ^ math.Float64bits(v)))
		}
	}
}

func (d *inputDigest) ints(vs ...int) {
	for _, v := range vs {
		*d = inputDigest(mix(uint64(*d) ^ uint64(v)))
	}
}
