package main

import (
	"reflect"
	"runtime"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// trackerStream seeds the expansion tracker's own RNG from the run seed.
const trackerStream = 0xbb67ae8584caa73b

// trafficParams sizes the traffic-stream workload.
type trafficParams struct {
	n, d, par     int
	injectPerStep int
	perSecond     float64 // timed plane steps per second of run length
	warmSteps     int     // untimed steps that fill the pipeline first
	maxDrain      int     // step cap for finishing the last messages
	replays       int     // messages replayed as single floods on a twin
	setupReps     int
	twinReps      int // extra hookless AdvanceRound samples of a traced pass

	// tamper, when set, corrupts message id's Result before the gates
	// see it: the self-test's negative control.
	tamper func(id flood.MessageID, r *flood.Result)
}

var (
	trafficFull  = trafficParams{n: 20000, d: 21, par: 2, injectPerStep: 16, perSecond: 2.25, warmSteps: 4, maxDrain: 200, replays: 6, setupReps: 5, twinReps: 400}
	trafficSmoke = trafficParams{n: 2000, d: 8, par: 2, injectPerStep: 4, perSecond: 6, warmSteps: 2, maxDrain: 200, replays: 3, setupReps: 2, twinReps: 50}
)

func runTrafficStream(seed uint64, seconds int, smoke bool, tr *tracer) *outcome {
	if smoke {
		return trafficStream(trafficSmoke, seed, seconds, tr)
	}
	return trafficStream(trafficFull, seed, seconds, tr)
}

// inFlightMsg is a message the client injected and has not yet retired.
type inFlightMsg struct {
	id   flood.MessageID
	src  graph.Handle
	step int // plane steps executed at injection
	t0   time.Time
}

// replayed is a finished message kept for the single-flood replay gate.
type replayed struct {
	inFlightMsg
	res flood.Result
}

// trafficStream keeps a multi-message traffic plane busy on a stationary
// SDGR model, with an expansion tracker riding the same hook chain. Every
// step injects injectPerStep messages from random alive sources, then
// steps the plane and observes the tracker. One operation is one message,
// from Inject until it leaves flight and is read and retired.
func trafficStream(p trafficParams, seed uint64, seconds int, tr *tracer) *outcome {
	o := newOutcome()
	o.procs = runtime.GOMAXPROCS(0)
	var (
		m      core.Model
		tk     *expansion.Tracker
		pl     *flood.Traffic
		ev     *eventCount
		sample []float64
		seedS  []float64
	)
	for i := 0; i < p.setupReps; i++ {
		m, tk, pl = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		sp := tr.begin("core.SampleStationary")
		m = core.SampleStationary(core.SDGR, p.n, p.d, rng.New(seed))
		tr.end(sp)
		t1 := time.Now()
		if tr != nil {
			ev = countEvents(m)
		}
		sp = tr.begin("expansion.NewTracker")
		tk = expansion.NewTracker(m, rng.New(seed^trackerStream), expansion.TrackerConfig{})
		tr.end(sp)
		t2 := time.Now()
		sp = tr.begin("flood.NewTraffic")
		pl = flood.NewTraffic(m, flood.TrafficOptions{Parallelism: p.par})
		tr.end(sp)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		sample = append(sample, t1.Sub(t0).Seconds())
		seedS = append(seedS, t2.Sub(t1).Seconds())
	}
	if tr != nil {
		m.SetHooks(timedHooks(m.Hooks(), tr))
	}

	steps := opsFor(p.perSecond, seconds)
	pick := rng.New(seed ^ pickStream)
	var (
		live      []inFlightMsg
		kept      []replayed
		nextKeep  int
		gap       = (p.warmSteps + steps) / p.replays
		inFlight  []float64
		delivered int
		timed     bool
		ph        *phase
		pr        phaseResult
		mem       flood.TrafficMemStats
	)
	// finish reads, checks and retires every message that left flight.
	finish := func() {
		w := 0
		for _, msg := range live {
			if pl.Status(msg.id) == flood.MessageInFlight {
				live[w] = msg
				w++
				continue
			}
			tr.setOp(int64(msg.id))
			sp := tr.begin("traffic.Result")
			res := pl.Result(msg.id)
			tr.end(sp)
			o.note("%d %v %d %d;", msg.id, msg.src, res.Rounds, res.EverInformed)
			if p.tamper != nil {
				p.tamper(msg.id, &res)
			}
			if err := checkFlood(res); err != nil {
				o.miss("message %d: %v", msg.id, err)
			} else {
				delivered++
			}
			if len(kept) < p.replays && msg.step >= nextKeep {
				kept = append(kept, replayed{msg, res})
				nextKeep = msg.step + max(res.Rounds, gap)
			}
			sp = tr.begin("traffic.Retire")
			pl.Retire(msg.id)
			tr.end(sp)
			if timed {
				o.lat = append(o.lat, sinceMS(msg.t0))
			}
		}
		live = live[:w]
	}
	tr.pause(true)
	for s := 0; s < p.warmSteps+steps; s++ {
		if s == p.warmSteps {
			runtime.GC()
			tr.pause(false)
			ph = beginPhase()
			ev.reset()
			timed = true
		}
		// Sources exclude the node the coming step removes (see floodStep).
		oldest := m.Graph().Oldest()
		for k := 0; k < p.injectPerStep; k++ {
			src := m.Graph().RandomAliveExcept(pick, oldest)
			tr.setOp(int64(pl.Injected()))
			t0 := time.Now()
			sp := tr.begin("traffic.Inject")
			id := pl.Inject(src)
			tr.end(sp)
			live = append(live, inFlightMsg{id: id, src: src, step: pl.Steps(), t0: t0})
		}
		if timed {
			inFlight = append(inFlight, float64(pl.Live()))
		}
		tr.setOp(-int64(s) - 1)
		sp := tr.begin("traffic.Step")
		pl.Step()
		tr.end(sp)
		sp = tr.begin("expansion.Observe")
		tk.Observe()
		tr.end(sp)
		finish()
	}
	pr = ph.end()
	mem = pl.MemStats()
	ev.record(o.layers)
	tr.pause(true)
	timed = false
	for d := 0; d < p.maxDrain && len(live) > 0; d++ {
		pl.Step()
		tk.Observe()
		finish()
	}
	for _, msg := range live {
		o.miss("message %d still in flight %d steps after the last injection", msg.id, p.maxDrain)
	}
	o.phase = pr
	o.attempted = pl.Injected()
	pl.Close()
	tk.Close()

	// Gate: sampled messages, replayed as independent single-message
	// floods on an identically seeded twin at their injection step, must
	// match the plane's Results bit for bit.
	twin := core.SampleStationary(core.SDGR, p.n, p.d, rng.New(seed))
	var roundUS []float64
	at := 0
	for _, r := range kept {
		for ; at < r.step; at++ {
			t0 := time.Now()
			twin.AdvanceRound()
			roundUS = append(roundUS, us(time.Since(t0)))
		}
		got := flood.Run(twin, flood.Options{Source: r.src, Parallelism: 1})
		at += got.Rounds
		o.attempted++
		if !reflect.DeepEqual(got, r.res) {
			o.miss("message %d differs from its single-flood replay: plane %+v, replay %+v", r.id, r.res, got)
		}
	}
	o.counts = map[string]int{"warm_steps": p.warmSteps, "timed_steps": steps, "timed_messages": len(o.lat), "messages": pl.Injected(), "replays": len(kept)}
	if tr == nil {
		return o
	}

	l := o.layers
	roundUS = append(roundUS, twinRoundUS(twin, p.twinReps)...)
	l.dist("core.sample_s", "s", sample)
	l.dist("core.round_us", "us", roundUS)
	l.dist("expansion.seed_s", "s", seedS)
	l.dist("expansion.observe_us", "us", tr.durations("expansion.Observe", time.Microsecond))
	stepMS := tr.durations("traffic.Step", time.Millisecond)
	hookMS := tr.childTime("traffic.Step", []string{"hooks.OnEdge", "hooks.OnDeath"}, time.Millisecond)
	churnMS := quantile(roundUS, 0.5) / 1000
	self := make([]float64, len(stepMS))
	for i := range stepMS {
		self[i] = stepMS[i] - hookMS[i] - churnMS
	}
	l.dist("traffic.step_ms", "ms", stepMS)
	l.dist("traffic.hook_ms_per_step", "ms", hookMS)
	l.dist("traffic.cut_self_ms_per_step", "ms", self)
	l.dist("traffic.inject_us", "us", tr.durations("traffic.Inject", time.Microsecond))
	l.dist("traffic.result_us", "us", tr.durations("traffic.Result", time.Microsecond))
	l.dist("traffic.retire_us", "us", tr.durations("traffic.Retire", time.Microsecond))
	l.value("traffic.in_flight_mean", "count", mean(inFlight), len(inFlight))
	l.value("traffic.lanes", "count", float64(mem.Lanes), 1)
	l.value("traffic.words_per_slot", "count", float64(mem.WordsPerSlot), 1)
	l.value("traffic.packed_informed_mb", "MB", float64(mem.PackedInformedBytes)/mb, 1)
	l.value("traffic.alloc_mb_per_step", "MB", float64(pr.allocBytes)/mb/float64(steps), steps)
	l.value("traffic.delivered_ratio", "ratio", float64(delivered)/float64(pl.Injected()), pl.Injected())
	runtimeLayers(l, pr, len(o.lat))
	return o
}

// timedHooks wraps the model's installed hook fan-out so that every event
// delivered to the observers becomes a span.
func timedHooks(h core.Hooks, tr *tracer) core.Hooks {
	if f := h.OnEdge; f != nil {
		h.OnEdge = func(u, v graph.Handle) {
			sp := tr.begin("hooks.OnEdge")
			f(u, v)
			tr.end(sp)
		}
	}
	if f := h.OnDeath; f != nil {
		h.OnDeath = func(x graph.Handle) {
			sp := tr.begin("hooks.OnDeath")
			f(x)
			tr.end(sp)
		}
	}
	return h
}
