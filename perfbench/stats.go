package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/plancache"
)

// sample is one op of a timed phase. Times are offsets from the phase
// epoch; due == start for closed loops.
type sample struct {
	op    uint64 // op ID (traced phases only)
	write bool
	stmt  int // distinct-statement index of a read
	due   time.Duration
	start time.Duration
	end   time.Duration
	err   error
	rows  int

	// Reported by the engine (Result or QueryResponse fields).
	plan, exec, queue time.Duration
	cacheHit          bool
	parallelism       int
	batches           int64
	replans           int
	estErrors         int
	respBytes         int
	net               netsim.Metrics // this op's link traffic (serial loops only)
}

func (s sample) latency() time.Duration { return s.end - s.due }

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	window  time.Duration // the timed window; ops may complete after it
	wall    time.Duration // epoch to the last completion
	res     resources
	// marks are resource snapshots at the phase's slice boundaries.
	marks []resources
	// net is the link traffic the per-query network metrics divide by
	// netReads.
	net      netsim.Metrics
	netReads int
	cache    plancache.Stats // plan-cache counter deltas
}

// sliceLen is the target length of the slices a timed window is cut
// into. Time-based figures are computed per slice and the best slice is
// reported: on a shared machine, interference from outside the process
// comes in bursts that last seconds, and the least-disturbed slice is
// what a change to the program moves.
const sliceLen = 5 * time.Second

// sliceCount is how many slices a window of length d is cut into.
func sliceCount(d time.Duration) int {
	if n := int(d / sliceLen); n > 1 {
		return n
	}
	return 1
}

// sliceFigures are one slice's figures: ops completing in the slice
// count towards it.
type sliceFigures struct {
	samples       int
	p50, p99, qps float64
	cpuPerOp      float64
}

// slices computes the figures of each slice that completed a read.
func (p *phase) slices() []sliceFigures {
	n := sliceCount(p.window)
	length := p.window / time.Duration(n)
	lat := make([][]float64, n)
	ops := make([]int, n)
	for _, s := range p.samples {
		w := int(s.end / length)
		if w >= n {
			continue
		}
		ops[w]++
		if !s.write && s.err == nil {
			lat[w] = append(lat[w], ms(s.latency()))
		}
	}
	var out []sliceFigures
	for w := 0; w < n; w++ {
		if len(lat[w]) == 0 || w+1 >= len(p.marks) {
			continue
		}
		out = append(out, sliceFigures{
			samples:  len(lat[w]),
			p50:      quantile(lat[w], 0.50),
			p99:      quantile(lat[w], 0.99),
			qps:      float64(len(lat[w])) / length.Seconds(),
			cpuPerOp: us(p.marks[w+1].cpu-p.marks[w].cpu) / float64(ops[w]),
		})
	}
	return out
}

// best is the lowest (or, with highest, the highest) value of one figure
// over slices.
func best(fs []sliceFigures, highest bool, get func(sliceFigures) float64) float64 {
	var b float64
	for i, f := range fs {
		if v := get(f); i == 0 || (v < b) != highest {
			b = v
		}
	}
	return b
}

// markSlices snapshots process resources at each slice boundary of a
// window of length d starting at epoch; the returned function waits for
// the last snapshot and returns them all.
func markSlices(epoch time.Time, d time.Duration) func() []resources {
	n := sliceCount(d)
	marks := make([]resources, n+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w <= n; w++ {
			if wait := time.Until(epoch.Add(d * time.Duration(w) / time.Duration(n))); wait > 0 {
				time.Sleep(wait)
			}
			marks[w] = snapResources()
		}
	}()
	return func() []resources {
		<-done
		return marks
	}
}

func (p *phase) reads() []sample {
	out := make([]sample, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.write {
			out = append(out, s)
		}
	}
	return out
}

// resources are process-wide counters sampled around a phase.
type resources struct {
	cpu      time.Duration // user+sys
	alloc    uint64        // bytes allocated
	numGC    uint32
	gcCPU    float64 // estimated GC CPU seconds
	totalCPU float64 // estimated total CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return resources{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		numGC:    ms.NumGC,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

func (r resources) since(before resources) resources {
	return resources{
		cpu:      r.cpu - before.cpu,
		alloc:    r.alloc - before.alloc,
		numGC:    r.numGC - before.numGC,
		gcCPU:    r.gcCPU - before.gcCPU,
		totalCPU: r.totalCPU - before.totalCPU,
	}
}

func cacheDelta(after, before plancache.Stats) plancache.Stats {
	return plancache.Stats{
		Hits:               after.Hits - before.Hits,
		Misses:             after.Misses - before.Misses,
		Evictions:          after.Evictions - before.Evictions,
		Invalidations:      after.Invalidations - before.Invalidations,
		DriftInvalidations: after.DriftInvalidations - before.DriftInvalidations,
	}
}

// heapAfterGC is the live heap once garbage from set-up is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile is the nearest-rank quantile of xs (0 for an empty slice).
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

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, returning 0 for an empty denominator.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
