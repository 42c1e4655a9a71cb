package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for no
// samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// enoughFor reports whether n samples support the q-quantile.
func enoughFor(n int, q float64) bool { return float64(n)*(1-q) >= minBeyond }

// tail is quantile when n samples support it and 0 otherwise; per-layer
// tails use it so a layer a workload barely touches reads 0, not noise.
func tail(xs []float64, q float64) float64 {
	if !enoughFor(len(xs), q) {
		return 0
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime counters the benchmark
// reports (runtime/metrics).
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU, liveBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3), val(4)}
}
