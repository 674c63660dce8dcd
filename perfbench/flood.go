package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// pickStream derives the benchmark's own RNG (flood sources, client
// choices) from the run seed, apart from the model's stream.
const pickStream = 0x6a09e667f3bcc909

// floodParams sizes the flood-sdgr workload.
type floodParams struct {
	n, d      int
	perSecond float64 // timed floods per second of run length
	warm      int     // untimed floods before the timed phase
	churn     int     // model rounds between consecutive floods
	refChecks int     // leading floods replayed with RunReference
	setupReps int
	twinReps  int // hookless AdvanceRound samples of a traced pass

	// tamper, when set, corrupts flood i's Result before the gates see
	// it: the self-test's negative control.
	tamper func(i int, r *flood.Result)
}

// floodProcs is the GOMAXPROCS of the flood-sdgr workload.
const floodProcs = 1

var (
	floodFull  = floodParams{n: 20000, d: 21, perSecond: 12, warm: 2, churn: 4, refChecks: 4, setupReps: 31, twinReps: 400}
	floodSmoke = floodParams{n: 2000, d: 8, perSecond: 20, warm: 1, churn: 4, refChecks: 3, setupReps: 2, twinReps: 50}
)

func runFloodSDGR(seed uint64, seconds int, smoke bool, tr *tracer) *outcome {
	if smoke {
		return floodSDGR(floodSmoke, seed, seconds, tr)
	}
	return floodSDGR(floodFull, seed, seconds, tr)
}

// floodSDGR runs single-message floods to completion on a stationary SDGR
// model that keeps churning between them. One operation is one flood.Run
// from a random alive source (see floodStep).
//
// The workload runs on one P, as one trial of the trial-parallel
// experiment suite does when every core holds a trial: the garbage
// collector then shares the flood's core instead of running on an idle
// second one. On a 2-vCPU VM it also keeps the flood from waiting on a
// second vCPU the hypervisor has descheduled: with hypervisor steal at
// 10-20% of a CPU, GOMAXPROCS=2 put the median flood 20-30% and the p90
// up to 60% above GOMAXPROCS=1, which it matches on a quiet host.
func floodSDGR(p floodParams, seed uint64, seconds int, tr *tracer) *outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(floodProcs))
	o := newOutcome()
	o.procs = floodProcs
	var m core.Model
	for i := 0; i < p.setupReps; i++ {
		m = nil
		runtime.GC()
		sp := tr.begin("core.SampleStationary")
		t0 := time.Now()
		m = core.SampleStationary(core.SDGR, p.n, p.d, rng.New(seed))
		o.setup = append(o.setup, time.Since(t0).Seconds())
		tr.end(sp)
	}
	var ev *eventCount
	if tr != nil {
		ev = countEvents(m)
	}

	ops := opsFor(p.perSecond, seconds)
	pick := rng.New(seed ^ pickStream)
	var kept []flood.Result
	var rounds, allocMB []float64
	var ph *phase
	tr.pause(true)
	for i := 0; i < p.warm+ops; i++ {
		if i == p.warm {
			runtime.GC()
			tr.pause(false)
			ph = beginPhase()
			ev.reset()
		}
		tr.setOp(int64(i))
		src := floodStep(m, p.churn, pick, tr)
		a0 := uint64(0)
		if tr != nil {
			a0 = allocated()
		}
		sp := tr.begin("flood.Run")
		t0 := time.Now()
		res := flood.Run(m, flood.Options{Source: src, Parallelism: 1})
		d := time.Since(t0)
		tr.end(sp)
		if i >= p.warm {
			o.lat = append(o.lat, ms(d))
			if tr != nil {
				rounds = append(rounds, float64(res.Rounds))
				allocMB = append(allocMB, float64(allocated()-a0)/mb)
			}
		}
		o.note("%v %d %d;", src, res.Rounds, res.EverInformed)
		if p.tamper != nil {
			p.tamper(i, &res)
		}
		if err := checkFlood(res); err != nil {
			o.miss("flood %d: %v", i, err)
		}
		if len(kept) < p.refChecks {
			kept = append(kept, res)
		}
	}
	o.phase = ph.end()
	runtime.KeepAlive(m)
	o.attempted = p.warm + ops
	tr.pause(true)

	// Gate: the leading floods, replayed with the rescanning reference
	// implementation on an identically seeded twin, must match bit for bit.
	twin := core.SampleStationary(core.SDGR, p.n, p.d, rng.New(seed))
	pick = rng.New(seed ^ pickStream)
	var refMS []float64
	for i, want := range kept {
		src := floodStep(twin, p.churn, pick, nil)
		t0 := time.Now()
		got := flood.RunReference(twin, flood.Options{Source: src})
		refMS = append(refMS, sinceMS(t0))
		o.attempted++
		if !reflect.DeepEqual(got, want) {
			o.miss("flood %d differs from RunReference: run %+v, reference %+v", i, want, got)
		}
	}
	o.counts = map[string]int{"warm_floods": p.warm, "timed_floods": ops, "reference_checks": len(kept)}
	if tr == nil {
		return o
	}

	l := o.layers
	roundUS := twinRoundUS(twin, p.twinReps)
	l.dist("core.sample_s", "s", o.setup)
	l.dist("core.round_us", "us", roundUS)
	ev.record(l)
	l.dist("flood.run_ms", "ms", o.lat)
	l.dist("flood.rounds_per_run", "count", rounds)
	self := make([]float64, len(o.lat))
	churnMS := quantile(roundUS, 0.5) / 1000
	for i, run := range o.lat {
		self[i] = (run - rounds[i]*churnMS) / rounds[i]
	}
	l.dist("flood.round_self_ms", "ms", self)
	l.dist("flood.alloc_mb_per_run", "MB", allocMB)
	l.dist("flood.reference_ms", "ms", refMS)
	runtimeLayers(l, o.phase, ops)
	return o
}

// floodStep advances m by churn rounds and draws the next flood source,
// uniformly among the alive nodes but the oldest. SDGR removes its oldest
// node in the next round, and a Discretized flood whose source dies in
// its first round dies out by Definition 4.3: a correct result, but not a
// completed flood.
func floodStep(m core.Model, churn int, pick *rng.RNG, tr *tracer) graph.Handle {
	sp := tr.begin("core.AdvanceRound")
	for c := 0; c < churn; c++ {
		m.AdvanceRound()
	}
	tr.end(sp)
	g := m.Graph()
	return g.RandomAliveExcept(pick, g.Oldest())
}

// checkFlood is the per-flood gate: a flood on a stationary SDGR model
// completes and, at its end, informs every alive node but the one born
// during its last round (Definition 3.3 completion cannot include it).
func checkFlood(r flood.Result) error {
	if !r.Completed || r.DiedOut {
		return fmt.Errorf("not completed (rounds %d, died out %v)", r.Rounds, r.DiedOut)
	}
	if r.FinalAlive-r.FinalInformed > 1 {
		return fmt.Errorf("final fraction %d/%d, want all but the newborn", r.FinalInformed, r.FinalAlive)
	}
	return nil
}

// twinRoundUS times reps single AdvanceRound calls on a model with no
// hooks installed: the churn cost every flood round pays underneath.
func twinRoundUS(m core.Model, reps int) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		m.AdvanceRound()
		out[i] = us(time.Since(t0))
	}
	return out
}

// eventCount counts the model's churn events through hooks chained under
// every observer installed later, and the rounds that produced them.
type eventCount struct {
	m             core.Model
	edges, deaths int
	round0        int
}

func countEvents(m core.Model) *eventCount {
	c := &eventCount{m: m}
	m.SetHooks(core.ChainHooks(m.Hooks(), core.Hooks{
		OnDeath: func(graph.Handle) { c.deaths++ },
		OnEdge:  func(u, v graph.Handle) { c.edges++ },
	}))
	c.reset()
	return c
}

// reset starts counting afresh from the model's current round.
func (c *eventCount) reset() {
	if c == nil {
		return
	}
	c.edges, c.deaths = 0, 0
	c.round0 = int(c.m.Now())
}

func (c *eventCount) record(l layers) {
	if c == nil {
		return
	}
	rounds := int(c.m.Now()) - c.round0
	if rounds < 1 {
		rounds = 1
	}
	l.value("core.edge_events_per_round", "count", float64(c.edges)/float64(rounds), rounds)
	l.value("core.death_events_per_round", "count", float64(c.deaths)/float64(rounds), rounds)
}
