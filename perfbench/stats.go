package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the tail is a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples rank above it, so p99
// needs at least 1000 samples, p95 200 and the median 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// calibrate times a fixed integer loop: a host-speed probe recorded
// beside each run so drift between runs shows, never a metric.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 200_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink = x
	return time.Since(start).Seconds()
}

var sink uint64

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a point-in-time reading of the Go runtime's
// allocation and CPU counters.
type runtimeSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
	cpu                time.Duration
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	return out
}

// runtimeDelta turns two samples around n queries into per-query
// allocation and CPU figures.
func runtimeDelta(a, b runtimeSample, n int) map[string]float64 {
	q := float64(n)
	gcFrac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return map[string]float64{
		"runtime.alloc_bytes_per_query": float64(b.allocBytes-a.allocBytes) / q,
		"runtime.allocs_per_query":      float64(b.allocs-a.allocs) / q,
		"runtime.gc_cpu_frac":           gcFrac,
		"runtime.cpu_us_per_query":      float64(b.cpu-a.cpu) / float64(time.Microsecond) / q,
	}
}

// median is the middle value (the mean of the middle two for an even
// count) of a summary over blocks; not for raw latency samples, which
// go through percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// qpsBlock is how many queries one throughput block holds.
const qpsBlock = 250

// blockQPS is a run's throughput as the median over contiguous blocks
// of qpsBlock queries, taken in completion order, so a transient stall
// on the host moves one block, not the figure. ends are the queries'
// completion times from the start of the replay. The per-block rates
// are returned too, as a drift diagnostic.
func blockQPS(ends []time.Duration) (qps float64, rates []float64) {
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := max(1, len(s)/qpsBlock)
	prev := time.Duration(0)
	for b := 0; b < k; b++ {
		lo, hi := b*len(s)/k, (b+1)*len(s)/k
		rates = append(rates, float64(hi-lo)/(s[hi-1]-prev).Seconds())
		prev = s[hi-1]
	}
	return median(rates), rates
}
