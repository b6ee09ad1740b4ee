package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// liveHeap forces a full collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapDelta converts a live-heap difference to MB, clamping a shrink
// (collector noise around tiny structures) at zero.
func heapDelta(before, after uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after-before) / mb
}

// measureSetup opens the system under test n times and reports the
// median wall time as setup_s and the median live-heap growth as heap_mb.
// Each open starts after the previous result is released and collected,
// so every sample sees the same heap. It returns the last result.
func measureSetup[T any](r *run, open func() (T, error), release func(T) error) (T, error) {
	var (
		cur   T
		have  bool
		times []float64
		heaps []float64
	)
	for i := 0; i < r.size.setups; i++ {
		if have {
			if err := release(cur); err != nil {
				return cur, err
			}
			var zero T
			cur, have = zero, false
		}
		before := liveHeap()
		start := time.Now()
		v, err := open()
		d := time.Since(start)
		if err != nil {
			return v, err
		}
		cur, have = v, true
		times = append(times, d.Seconds())
		heaps = append(heaps, heapDelta(before, liveHeap()))
	}
	fmt.Fprintf(logw, "set-up times (s): %.3f\n", times)
	r.set("setup_s", median(times))
	r.set("heap_mb", median(heaps))
	return cur, nil
}

// latencies collects one client's operation latencies in ms.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// merge concatenates the clients' samples.
func merge(ls ...latencies) []float64 {
	var out []float64
	for _, l := range ls {
		out = append(out, l...)
	}
	return out
}

// setLatency reports query_p50_ms and query_p99_ms over all samples and
// logs the sample count; p99 needs 1000 samples to have ten beyond it.
func setLatency(r *run, lat []float64) {
	fmt.Fprintf(logw, "query latency from %d samples\n", len(lat))
	if len(lat) < 1000 {
		fmt.Fprintf(logw, "warning: query_p99_ms has fewer than ten samples beyond it\n")
	}
	r.set("query_p50_ms", quantile(lat, 0.5))
	r.set("query_p99_ms", quantile(lat, 0.99))
}
