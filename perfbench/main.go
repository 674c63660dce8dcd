// Command perfbench is churnnet's benchmark. It runs one workload from a
// seed and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (set-up time,
// throughput, per-op latency, allocation, live heap); with -trace 1 they
// are the per-layer figures of a traced pass. Every run also checks the
// program's outputs (see the gates in each workload file) and counts a
// miss as a failed operation. README.md gives the rationale and the
// per-layer → end-to-end → workload map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload flood-sdgr --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one seeded operation sequence of the benchmark.
type workload struct {
	name string
	// run executes one pass: set-up, warm-up, the timed operations and the
	// correctness gates. seconds scales the operation count (never the
	// duration); smoke selects the small sizes of the self-test. A non-nil
	// tracer makes it a traced pass that also fills outcome.layers.
	run func(seed uint64, seconds int, smoke bool, tr *tracer) *outcome
}

var workloads = []workload{
	{"flood-sdgr", runFloodSDGR},
	{"traffic-stream", runTrafficStream},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int
	misses            []string    // the first few gate misses, for stderr
	trail             hash.Hash64 // fingerprint of the operation sequence

	setup  []float64 // seconds per set-up repetition
	lat    []float64 // ms per timed operation
	phase  phaseResult
	layers layers         // traced passes only
	counts map[string]int // operation counts for the run header
	procs  int            // GOMAXPROCS the pass ran with
}

func newOutcome() *outcome { return &outcome{layers: layers{}, trail: fnv.New64a()} }

// note adds one operation's inputs to the sequence fingerprint.
func (o *outcome) note(format string, args ...any) { fmt.Fprintf(o.trail, format, args...) }

// miss records a failed correctness gate.
func (o *outcome) miss(format string, args ...any) {
	o.failed++
	if len(o.misses) < 8 {
		o.misses = append(o.misses, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) opsPerSecond() float64 {
	return float64(len(o.lat)) / o.phase.wall.Seconds()
}

// endToEnd returns the end-to-end metrics of an untraced pass.
func (o *outcome) endToEnd() map[string]metric {
	ops := float64(len(o.lat))
	return map[string]metric{
		"setup_s":         {quantile(o.setup, 0.5), "s"},
		"ops_per_s":       {o.opsPerSecond(), "1/s"},
		"op_p50_ms":       {quantile(o.lat, 0.5), "ms"},
		"op_p90_ms":       {quantile(o.lat, 0.9), "ms"},
		"alloc_mb_per_op": {float64(o.phase.allocBytes) / mb / ops, "MB"},
		"heap_live_mb":    {float64(o.phase.heapLive) / mb, "MB"},
	}
}

// report is the outcome of one benchmark invocation.
type report struct {
	correct           bool
	attempted, failed int
	misses            []string
	metrics           map[string]metric
	layers            layers
	counts            map[string]int
	procs             int
	trail             uint64
	spans             []span
	side              []sidePass
}

// sidePass records the gates of a traced pass of another workload, run
// only for the per-layer metrics of the layers it drives.
type sidePass struct {
	Workload  string   `json:"workload"`
	Seconds   int      `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Misses    []string `json:"misses,omitempty"`
}

// sideSeconds is the run length of a side pass: the other workload at
// its full size, with fewer operations.
const sideSeconds = 5

// measure runs workload w. Untraced, it is one pass reporting the
// end-to-end metrics. Traced, it is an untraced pass, then a traced pass
// of the same operation sequence reporting the per-layer metrics and the
// tracing overhead. Every traced run reports every per-layer metric, so
// the layers w does not drive come from a shortened traced side pass of
// the workload that drives them, at that workload's full size. A side
// pass's gates are reported apart from w's operation counts.
func measure(w workload, seed uint64, seconds int, traced, smoke bool) report {
	base := w.run(seed, seconds, smoke, nil)
	rep := report{attempted: base.attempted, failed: base.failed, misses: base.misses, counts: base.counts, procs: base.procs, trail: base.trail.Sum64()}
	if !traced {
		rep.metrics = base.endToEnd()
		rep.correct = rep.failed == 0
		return rep
	}
	runtime.GC()
	tr := newTracer()
	o := w.run(seed, seconds, smoke, tr)
	rep.spans = tr.spans
	rep.attempted += o.attempted
	rep.failed += o.failed
	rep.misses = append(rep.misses, o.misses...)
	rep.layers = o.layers
	rep.layers.value("trace.overhead_ratio", "ratio", o.opsPerSecond()/base.opsPerSecond(), 2)
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		runtime.GC()
		p := other.run(seed, sideSeconds, smoke, newTracer())
		rep.side = append(rep.side, sidePass{other.name, sideSeconds, p.attempted, p.failed, p.misses})
		for k, v := range p.layers {
			if _, ok := rep.layers[k]; !ok {
				rep.layers[k] = v
			}
		}
	}
	rep.metrics = make(map[string]metric, len(rep.layers))
	for k, v := range rep.layers {
		rep.metrics[k] = metric{v.Median, v.Unit}
	}
	rep.correct = rep.failed == 0
	return rep
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flood-sdgr or traffic-stream")
	seed := fs.Uint64("seed", 1, "seed of the operation sequence")
	seconds := fs.Int("seconds", 10, "run length; scales the fixed operation count (1..600)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *seconds > 600:
		fmt.Fprintf(stderr, "perfbench: -seconds %d out of range 1..600\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}

	rep := measure(w, *seed, *seconds, *trace == 1, false)
	for _, m := range rep.misses {
		fmt.Fprintln(stderr, "perfbench: gate miss:", m)
	}
	for _, p := range rep.side {
		for _, m := range p.Misses {
			fmt.Fprintf(stderr, "perfbench: side pass %s: gate miss: %s\n", p.Workload, m)
		}
	}
	enc := json.NewEncoder(stdout)
	hdr := header(w.name, *seed, *seconds, *trace == 1, rep.procs, rep.counts, rep.trail)
	if rep.side != nil {
		hdr["side_passes"] = rep.side
	}
	if err := enc.Encode(map[string]any{"header": hdr}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 1 {
		path, err := writeSpans(w.name, *seed, hdr, rep.spans)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		if err := enc.Encode(map[string]any{"layers": rep.layers, "spans": path}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := enc.Encode(map[string]any{
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// header describes the host and the run, so a record can be told apart
// from host noise and reproduced.
func header(name string, seed uint64, seconds int, traced bool, procs int, counts map[string]int, trail uint64) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"go":         runtime.Version(),
		"gomaxprocs": procs,
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"ops":        counts,
		"ops_trail":  fmt.Sprintf("%016x", trail),
	}
}

// writeSpans writes the traced pass's spans under .bench_build/ of the
// working directory and returns the file's path.
func writeSpans(name string, seed uint64, hdr map[string]any, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	b, err := json.Marshal(map[string]any{"header": hdr, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory, or reports "unknown" outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// opsFor turns a run length into the fixed operation count of a workload
// whose reference rate is perSecond: the count, not the clock, ends the
// timed phase, so a faster program finishes the same work sooner.
func opsFor(perSecond float64, seconds int) int {
	n := int(perSecond*float64(seconds) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// sinceMS is time.Since in milliseconds.
func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }
