package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure of a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerStat is the detail behind one per-layer metric: the reported
// median plus its sample count and spread.
type layerStat struct {
	Median  float64 `json:"median"`
	Samples int     `json:"samples"`
	P10     float64 `json:"p10"`
	P90     float64 `json:"p90"`
	Unit    string  `json:"unit"`
}

// layers collects the per-layer metrics of one traced pass.
type layers map[string]layerStat

// dist records a metric from its samples.
func (l layers) dist(name, unit string, xs []float64) {
	l[name] = layerStat{
		Median:  quantile(xs, 0.5),
		Samples: len(xs),
		P10:     quantile(xs, 0.1),
		P90:     quantile(xs, 0.9),
		Unit:    unit,
	}
}

// value records a metric that is one figure (a count or a ratio over the
// whole pass) made from `samples` observations.
func (l layers) value(name, unit string, v float64, samples int) {
	l[name] = layerStat{Median: v, Samples: samples, P10: v, P90: v, Unit: unit}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// rtSample is the process state a phase is measured against.
type rtSample struct {
	wall     time.Time
	alloc    uint64 // bytes ever allocated on the heap
	gcCycles uint64
	gcCPU    float64 // seconds of CPU the GC used (runtime estimate)
	cpu      time.Duration
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		wall:     time.Now(),
		alloc:    ms[0].Value.Uint64(),
		gcCycles: ms[1].Value.Uint64(),
		gcCPU:    ms[2].Value.Float64(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// allocated returns the heap bytes allocated so far, cheaply enough to
// bracket single operations.
func allocated() uint64 {
	s := []metrics.Sample{{Name: rtMetricNames[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phase measures the timed part of a workload: its wall time, the heap
// bytes allocated, the live heap left at its end, and the runtime's GC
// and CPU figures.
type phase struct{ start rtSample }

func beginPhase() *phase { return &phase{start: sampleRuntime()} }

// phaseResult is what a finished phase measured.
type phaseResult struct {
	wall       time.Duration
	allocBytes uint64
	heapLive   uint64
	gcCycles   uint64
	gcCPU      float64
	cpu        time.Duration
}

// end stops the phase clock, then collects garbage to read the live heap.
func (p *phase) end() phaseResult {
	s := sampleRuntime()
	r := phaseResult{
		wall:       s.wall.Sub(p.start.wall),
		allocBytes: s.alloc - p.start.alloc,
		gcCycles:   s.gcCycles - p.start.gcCycles,
		gcCPU:      s.gcCPU - p.start.gcCPU,
		cpu:        s.cpu - p.start.cpu,
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapLive = m.HeapAlloc
	return r
}

// runtimeLayers records the runtime layer's per-op figures of a phase.
func runtimeLayers(l layers, pr phaseResult, ops int) {
	l.value("runtime.gc_cycles_per_op", "count", float64(pr.gcCycles)/float64(ops), ops)
	frac := 0.0
	if pr.cpu > 0 {
		frac = pr.gcCPU / pr.cpu.Seconds()
	}
	l.value("runtime.gc_cpu_fraction", "ratio", frac, ops)
	l.value("runtime.cpu_ms_per_op", "ms", ms(pr.cpu)/float64(ops), ops)
}
