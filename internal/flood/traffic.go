package flood

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/dist"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Traffic is the multi-message generalization of the cut-set engine: M
// in-flight broadcasts share one model, one churn event stream and one
// hook chain, instead of M sequential single-message runs each paying its
// own model and advancement.
//
// Every message occupies a *lane* — a bit column in the plane's packed
// informed state plus a small private record (the O(1) informedAlive
// completion counter and its Result). Unlike the single engine, the
// per-slot membership state is not one graph.Marks per lane: the plane
// owns one packed bitset (laneBits) holding, per arena slot, one bit per
// lane — 64 lanes per word — for "lane considers this node informed",
// under one *shared* per-slot epoch/generation (a slot's generation is a
// property of the node occupying it, not of any message). That layout
// costs ⌈M/64⌉ words per slot instead of ~12 bytes per slot per lane,
// and it makes every cross-lane classification word-parallel:
//
//   - noteEdge classifies a churn edge against all M cuts at once: the
//     XOR of the endpoints' informed words, masked by the in-flight
//     lanes, is exactly the lanes for which the edge straddles the cut,
//     and the fan-out iterates only its set bits;
//   - noteDeath decrements the informed counters of exactly the lanes
//     whose bit is set on the dead slot, one masked word at a time;
//   - the frontier drain dedups scan nodes across lanes at crossing
//     time (scanLanes is a packed lane bitmask per pending node), scans
//     each distinct node's neighborhood exactly once, and fans each
//     discovered cut edge out over set bits only.
//
// The candidate edges themselves live in one flat, append-only cut log
// per owner shard, shared by every lane: each entry is one (receiver,
// lane, sender) triple, appended to the receiver's owner shard by the
// serial hooks or by that shard's drain merge. Nothing is slot-indexed
// per lane, so the plane's cut state costs O(cut entries) rather than
// O(lanes · slots), and appending is one amortized slice append. Freeze
// compacts each log in place in one sweep — dropping entries whose
// receiver or sender died, whose lane already informs the receiver, or
// whose lane left flight — and records the frozen length; admission
// reads only that prefix, so edges appended during the advance wait one
// round, exactly like the single engine's frozen list lengths.
//
// One Step advances the model by one transmission unit and executes one
// flooding round for every in-flight message; per-round quantities that
// are functions of the graph alone (the pre-round population, the
// birth-sequence horizon) are maintained once and shared by every lane.
//
// Under TrafficOptions.Parallelism the O(cut) passes batch across
// messages inside the same per-slot-range worker sweep the single engine
// uses: worker w owns arena slots (s/shardBlock) mod par == w for every
// lane at once, so one barrier per pass covers all M messages instead of
// M barriers.
//
// # Determinism and the differential oracle
//
// A message injected when the plane has executed j Steps produces a
// Result bit-for-bit identical to flood.Run on an identically seeded
// model advanced j rounds, flooding from the same source with the same
// Options — the multi-message run is indistinguishable, message by
// message, from M independent single-message runs replaying the same
// churn stream (flooding consumes no randomness, so the streams align).
// This is pinned by TestTrafficMatchesSingleMessageOracle across models,
// injection schedules, worker counts, seeds and M straddling the 64-lane
// word boundary, with a corrupted-engine negative control proving the
// harness has teeth.
//
// Internal orders differ from the single engine's — the log interleaves
// every lane's entries in append order, and admissions apply in (shard,
// log) order rather than lane-major — but no Result bit depends on them:
// admission is an existence test over a (receiver, lane) pair's frozen
// entries, emitting each admitted pair once, and every Result field is a
// count over admitted sets, the same argument that makes the single engine's
// Results invariant across worker counts. The admission order of
// messages injected in the same Step is likewise unobservable: lanes
// never read each other's state, so permuting same-round Inject calls
// permutes MessageIDs and nothing else (TestTrafficInjectionOrderInvariance).
//
// # Admission and retirement
//
// Inject admits a message; its lane index claims a bit column in the
// packed bitset and the source's one-off neighborhood scan is deferred
// to the next Step's freeze, exactly like the single engine. A message
// leaves the in-flight set on its own terms — completion (unless
// RunToMax), die-out, or its MaxRounds cap — after which its lane is
// dormant (masked out of every event by the in-flight lane mask) but
// still allocated. Leaving flight bumps the lane's incarnation (the
// upper bits of its cut-log tag), which turns every log entry the
// message left behind stale at once; the next freeze drops them. Retire
// releases the lane index for reuse by later injections, keeping engine
// memory O(live messages) plus a constant-size record per message ever
// injected (the Result survives retirement). A reused lane index starts
// from an all-zero bit column under a fresh incarnation, so even an
// Inject that reuses it before the next freeze never inherits the old
// message's entries, and late injections behave bit-for-bit like a
// fresh engine (TestTrafficRetireReleasesAndReuses).
//
// The plane owns the model between NewTraffic and Close: callers must not
// advance the model themselves, and observer lifetimes must nest (Close
// restores the hooks saved at NewTraffic).
type Traffic struct {
	m    core.Model
	g    *graph.Graph
	opts TrafficOptions
	par  int // effective worker-shard count, >= 1

	maxRounds int
	prevHooks core.Hooks
	closed    bool

	steps int // plane rounds executed (Step calls)

	msgs      []message // indexed by MessageID; constant-size each
	lanes     []*lane   // lane slots; nil when retired
	freeLanes []int     // retired lane slots available for reuse
	inFlight  []int     // lane indices of in-flight messages, admission order

	// Packed lane-membership state, one bit per (slot, lane), 64 lanes
	// per word. stride = ceil(len(lanes)/64) words per slot; liveMask
	// holds the in-flight lane indices (stride words) and masks every
	// event read, so bits of dormant or retired lanes are inert.
	stride   int
	liveMask []uint64
	informed laneBits // lanes that consider the slot's node informed

	// laneTag[li] is the tag lane li's current message stamps on its
	// cut-log entries: li in the low laneIdxBits, the lane's incarnation
	// above. It changes when the message leaves flight, so an entry is
	// current exactly when its tag equals its lane's laneTag.
	laneTag []uint32

	// Shared per-round state: functions of the graph and the round alone,
	// identical for every lane (see engine.preRoundAlive).
	preRoundAlive int
	roundStartSeq uint64

	// Pending frontier, deduplicated across lanes at crossing time:
	// scanNodes holds the distinct nodes to scan at the next freeze,
	// scanLanes[k*stride:(k+1)*stride] the packed lanes that queued
	// scanNodes[k], and nodeIdx maps an arena slot to its scanNodes
	// index (-1 when absent). A pending handle stays alive until the
	// next freeze unless churn between Steps departs it, so scanAdd
	// trusts a nodeIdx entry only when it names the crossing node itself.
	scanNodes []graph.Handle
	scanLanes []uint64
	nodeIdx   []int32

	shards []trafficShard

	// stage holds the parallel drain's routing buffers, exactly like the
	// single engine's: chunk c stages the cut edges it discovers for
	// shard s in stage[c*par+s].
	stage     [][]laneCutEdge
	chunkNext atomic.Int64
	scratch   []graph.Marks // per-worker neighborhood-dedup scratch

	// onStage, when non-nil, filters every discovered cut edge right
	// before it is logged for lane li (false = drop). Test-only: the
	// corrupted-engine negative control drops one cross-message frontier
	// event and asserts the differential oracle catches the divergence.
	onStage func(li int, recv, sender graph.Handle) bool
}

// TrafficOptions configures a Traffic plane. Every option applies
// uniformly to all injected messages.
type TrafficOptions struct {
	// Mode selects Discretized (default) or Asynchronous semantics.
	Mode Mode
	// MaxRounds caps each message's rounds counted from its injection;
	// 0 selects DefaultMaxRounds(model.N()).
	MaxRounds int
	// KeepTrajectory records per-round informed/alive counts per message.
	KeepTrajectory bool
	// RunToMax keeps completed messages flooding until their round cap.
	RunToMax bool
	// Parallelism is the worker-shard count of the batched cut passes,
	// with the same contract as Options.Parallelism: 0 or 1 runs serial,
	// any negative value selects the Auto policy, and per-message Results
	// are bit-for-bit identical at every setting.
	Parallelism int
}

// MessageID identifies one message admitted to a Traffic plane. IDs are
// dense and monotone in admission order and are never reused, even when
// the lane slot backing the message is.
type MessageID int

// MessageStatus is the lifecycle state of an injected message.
type MessageStatus uint8

// Message lifecycle states.
const (
	// MessageInFlight: the message still floods on every Step.
	MessageInFlight MessageStatus = iota
	// MessageDone: the message finished (completed, died out or hit its
	// round cap); its lane is dormant until Retire.
	MessageDone
	// MessageRetired: the lane's per-slot state has been released; the
	// Result remains queryable.
	MessageRetired
)

// String names the status.
func (s MessageStatus) String() string {
	switch s {
	case MessageInFlight:
		return "in-flight"
	case MessageDone:
		return "done"
	case MessageRetired:
		return "retired"
	default:
		return fmt.Sprintf("MessageStatus(%d)", uint8(s))
	}
}

// message is the constant-size per-message record that survives
// retirement.
type message struct {
	laneIdx int // -1 after retirement
	status  MessageStatus
	step    int    // plane steps executed at injection
	res     Result // final copy, written when the message finishes
}

// lane is one message's private flooding state: everything that is not
// packed into the plane's shared bitset or logged in the shards' cut
// logs. The informed membership itself lives in Traffic.informed under
// this lane's bit index.
type lane struct {
	id  MessageID
	src graph.Handle

	round int // per-message rounds executed (relative to injection)

	informedAlive int
	res           Result
}

// trafficShard owns the cut state of the arena slots mapped to it,
// shared by every lane. Only the owner shard touches it during a
// parallel phase.
type trafficShard struct {
	// log holds every candidate edge toward a receiver this shard owns,
	// in append order, possibly stale until the next freeze compacts it;
	// log[:frozen] is the running round's frozen cut.
	log    []cutEntry
	frozen int

	// adm is the admission sweep's output, applied at the serial merge:
	// one entry per (receiver, lane) pair admitted this round.
	adm []laneCrossing
}

// cutEntry is one cut-log candidate: send was an informed sender toward
// the uninformed receiver recv in the lane named by tag when the entry
// was appended. tag is the lane's laneTag at that time; entries of a
// message that has left flight no longer match and drop at the next
// freeze.
type cutEntry struct {
	recv, send graph.Handle
	tag        uint32
}

// laneIdxBits is the width of a cut-log tag's lane-index field; the
// bits above it count the lane's incarnations. A lane index is re-granted
// at most once between two freezes (a message must Step to finish before
// Retire), so an 8-bit incarnation never aliases a stale entry.
const (
	laneIdxBits = 24
	laneIdxMask = 1<<laneIdxBits - 1
)

// laneCrossing is one admitted (receiver, lane) pair.
type laneCrossing struct {
	v  graph.Handle
	li int32
}

// laneCutEdge stages one discovered candidate edge for its receiver's
// owner shard; scan indexes the drain's scanNodes/scanLanes (the sender
// and the packed lanes the edge fans out to).
type laneCutEdge struct {
	recv graph.Handle
	scan int32
}

// NewTraffic opens a multi-message traffic plane over m. It installs the
// engine's hooks chained over any existing observer (restored by Close)
// and panics if the model does not guarantee the edge-event contract of
// core.EdgeEventSource — the incremental cut bookkeeping requires it, and
// unlike Run there is no per-message reference fallback to hide behind.
func NewTraffic(m core.Model, opts TrafficOptions) *Traffic {
	if es, ok := m.(core.EdgeEventSource); !ok || !es.EmitsEdgeEvents() {
		panic("flood: NewTraffic requires a model with the edge-event contract")
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(m.N())
	}
	t := &Traffic{
		m:         m,
		g:         m.Graph(),
		opts:      opts,
		par:       resolveParallelism(opts.Parallelism, m.N()),
		maxRounds: maxRounds,
		stride:    1,
		liveMask:  make([]uint64, 1),
	}
	t.informed.init(1)
	t.shards = make([]trafficShard, t.par)
	t.scratch = make([]graph.Marks, t.par)
	t.prevHooks = m.Hooks()
	m.SetHooks(core.ChainHooks(core.Hooks{OnDeath: t.noteDeath, OnEdge: t.noteEdge}, t.prevHooks))
	return t
}

// Close detaches the plane from the model's hook chain, restoring the
// hooks saved at NewTraffic, and releases its cut logs. In-flight
// messages stop flooding; every message's Status and Result stay
// queryable. Closing twice is a no-op.
func (t *Traffic) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.m.SetHooks(t.prevHooks)
	t.inFlight = t.inFlight[:0]
	t.shards = nil
}

// Inject admits a new message sourced at src (Nil selects the model's
// most recently born node, the single-run convention) and returns its
// MessageID. The message's first flooding round is the next Step; its
// Result is bit-for-bit what a single flood.Run from the same source and
// model state would produce. It panics if the source is not alive or the
// plane is closed.
func (t *Traffic) Inject(src graph.Handle) MessageID {
	if t.closed {
		panic("flood: Inject on a closed Traffic plane")
	}
	if src.IsNil() {
		src = t.m.LastBorn()
	}
	if !t.g.IsAlive(src) {
		panic("flood: traffic source is not an alive node")
	}
	id := MessageID(len(t.msgs))

	var li int
	if n := len(t.freeLanes); n > 0 {
		li = t.freeLanes[n-1]
		t.freeLanes = t.freeLanes[:n-1]
		// A reused lane index must start from an all-zero bit column:
		// while the lane was free its stale bits were masked out of every
		// read by liveMask, but re-granting the index makes them live.
		t.informed.clearLane(li)
		t.clearScanLane(li)
	} else {
		li = len(t.lanes)
		if li > laneIdxMask {
			panic("flood: Traffic plane exceeds 2^24 simultaneous messages")
		}
		t.lanes = append(t.lanes, nil)
		t.laneTag = append(t.laneTag, uint32(li))
		if need := (len(t.lanes) + 63) / 64; need > t.stride {
			t.reshape(need)
		}
	}
	ln := &lane{id: id, src: src}
	t.lanes[li] = ln

	ln.res = Result{
		Source:                src,
		CompletionRound:       -1,
		StrictCompletionRound: -1,
		DiedOutRound:          -1,
		PeakInformed:          1,
		EverInformed:          1,
	}
	alive0 := t.g.NumAlive()
	if alive0 > 0 {
		ln.res.PeakFraction = 1 / float64(alive0)
	}
	if t.opts.KeepTrajectory {
		ln.res.Informed = append(ln.res.Informed, 1)
		ln.res.Alive = append(ln.res.Alive, alive0)
	}
	ln.informedAlive = 1
	t.setLive(li)
	t.informed.set(src, li)
	t.scanAdd(li, src)

	t.inFlight = append(t.inFlight, li)
	t.msgs = append(t.msgs, message{laneIdx: li, status: MessageInFlight, step: t.steps})
	return id
}

// Steps returns the number of plane rounds executed so far.
func (t *Traffic) Steps() int { return t.steps }

// Live returns the number of in-flight messages.
func (t *Traffic) Live() int { return len(t.inFlight) }

// Injected returns the number of messages ever admitted.
func (t *Traffic) Injected() int { return len(t.msgs) }

// msg resolves id, panicking with a diagnosable message on an id this
// plane never issued — Status, Result and Retire share the check, so a
// caller's stale or foreign MessageID fails loudly instead of as a raw
// index-out-of-range deep in slice code.
func (t *Traffic) msg(id MessageID) *message {
	if id < 0 || int(id) >= len(t.msgs) {
		panic(fmt.Sprintf("flood: unknown MessageID %d (plane has admitted %d messages)", id, len(t.msgs)))
	}
	return &t.msgs[id]
}

// Status reports where id is in its lifecycle. It panics on a MessageID
// the plane never issued; it remains valid on a closed plane.
func (t *Traffic) Status(id MessageID) MessageStatus { return t.msg(id).status }

// Result returns id's flooding outcome: the final Result once the message
// is done or retired, or a snapshot of the in-progress one (fields cover
// the rounds executed so far). It panics on a MessageID the plane never
// issued; it remains valid on a closed plane.
func (t *Traffic) Result(id MessageID) Result {
	msg := t.msg(id)
	if msg.status == MessageInFlight {
		res := t.lanes[msg.laneIdx].res
		// Detach the trajectories: the lane keeps appending to its own.
		res.Informed = append([]int(nil), res.Informed...)
		res.Alive = append([]int(nil), res.Alive...)
		return res
	}
	return msg.res
}

// Retire releases a done message's lane — its bit column in the packed
// membership state and its cut-log tag — for reuse by later injections;
// the Result remains queryable. It panics on a MessageID the plane never
// issued, on a closed plane, and unless the message is MessageDone:
// in-flight messages run to their own finish, and retiring twice is a
// bug.
func (t *Traffic) Retire(id MessageID) {
	if t.closed {
		panic("flood: Retire on a closed Traffic plane")
	}
	msg := t.msg(id)
	if msg.status != MessageDone {
		panic("flood: Retire of a message that is " + msg.status.String())
	}
	t.lanes[msg.laneIdx] = nil
	t.freeLanes = append(t.freeLanes, msg.laneIdx)
	msg.laneIdx = -1
	msg.status = MessageRetired
}

// Step advances the plane one transmission unit: freeze every in-flight
// lane's cut, advance the model one round (churn events update all lanes
// through the shared hook chain), then run every lane's admission and
// round accounting. Messages that finish this round leave the in-flight
// set with their Result final.
func (t *Traffic) Step() {
	if t.closed {
		panic("flood: Step on a closed Traffic plane")
	}
	t.steps++
	g := t.g

	t.freeze()
	t.roundStartSeq = g.NextBirthSeq()
	t.preRoundAlive = g.NumAlive()

	t.m.AdvanceRound()

	// Admission over the frozen candidates; every shard sweeps its own
	// frozen log prefix across all lanes at once, marking each admitted
	// pair informed, and the remaining crossing work applies at the
	// serial merge in (shard, log) order. The sweep may claim any slot of
	// the snapshot, so the bitset spans the arena before the fan-out.
	t.informed.grow(g.NumSlots())
	t.forEachShard(func(w int) { t.admitShard(w) })
	alive := g.NumAlive()
	for w := range t.shards {
		for _, a := range t.shards[w].adm {
			ln := t.lanes[a.li]
			ln.res.EverInformed++
			ln.informedAlive++
			t.scanAdd(int(a.li), a.v)
		}
	}
	keep := t.inFlight[:0]
	for _, li := range t.inFlight {
		ln := t.lanes[li]
		if t.roundAccounting(ln, alive) {
			keep = append(keep, li)
		} else {
			msg := &t.msgs[ln.id]
			msg.status = MessageDone
			msg.res = ln.res
			t.clearLive(li)
			t.laneTag[li] += 1 << laneIdxBits // every entry it logged is stale
		}
	}
	t.inFlight = keep
}

// roundAccounting mirrors the single engine's per-round bookkeeping for
// one lane and reports whether the message stays in flight.
func (t *Traffic) roundAccounting(ln *lane, alive int) bool {
	ln.round++
	res := &ln.res
	res.Rounds = ln.round

	informedAlive := ln.informedAlive
	if t.opts.KeepTrajectory {
		res.Informed = append(res.Informed, informedAlive)
		res.Alive = append(res.Alive, alive)
	}
	if informedAlive > res.PeakInformed {
		res.PeakInformed = informedAlive
	}
	if alive > 0 {
		if f := float64(informedAlive) / float64(alive); f > res.PeakFraction {
			res.PeakFraction = f
		}
	}
	res.FinalInformed, res.FinalAlive = informedAlive, alive

	if informedAlive == t.preRoundAlive && !res.Completed {
		res.Completed = true
		res.CompletionRound = ln.round
	}
	if informedAlive == alive && !res.StrictlyCompleted {
		res.StrictlyCompleted = true
		res.StrictCompletionRound = ln.round
	}
	if informedAlive == 0 {
		res.DiedOut = true
		res.DiedOutRound = ln.round
		return false // absorbing: nobody is left to transmit
	}
	if res.Completed && !t.opts.RunToMax {
		return false
	}
	return ln.round < t.maxRounds
}

// --- packed lane plumbing ---

// owner maps an arena slot to its shard index — the single engine's
// block-cyclic assignment, shared by every lane.
func (t *Traffic) owner(slot uint32) int {
	if t.par == 1 {
		return 0
	}
	return int(slot/shardBlock) % t.par
}

// forEachShard fans fn out exactly like the single engine's.
func (t *Traffic) forEachShard(fn func(w int)) {
	forEachWorker(t.par, fn)
}

func (t *Traffic) setLive(li int)   { t.liveMask[li>>6] |= 1 << (li & 63) }
func (t *Traffic) clearLive(li int) { t.liveMask[li>>6] &^= 1 << (li & 63) }

// reshape widens the packed state to a new words-per-slot stride when
// the allocated lane count crosses a 64-lane word boundary. Serial
// context only (Inject); the pending scan masks migrate with it.
func (t *Traffic) reshape(stride int) {
	t.informed.reshape(stride)
	lm := make([]uint64, stride)
	copy(lm, t.liveMask)
	t.liveMask = lm
	if n := len(t.scanNodes); n > 0 {
		ns := make([]uint64, n*stride)
		for k := 0; k < n; k++ {
			copy(ns[k*stride:], t.scanLanes[k*t.stride:(k+1)*t.stride])
		}
		t.scanLanes = ns
	} else {
		t.scanLanes = t.scanLanes[:0]
	}
	t.stride = stride
}

// appendSender logs s as an informed sender toward the uninformed
// receiver x in lane li, in x's owner shard's cut log. Callable from the
// serial hook context and from x's owner shard during a parallel merge.
func (t *Traffic) appendSender(li int, x, s graph.Handle) {
	sh := &t.shards[t.owner(x.Slot)]
	sh.log = append(sh.log, cutEntry{recv: x, send: s, tag: t.laneTag[li]})
}

// growNodeIdx spans the slot -> scan-index map, keeping new entries at
// the -1 sentinel.
func (t *Traffic) growNodeIdx(n int) {
	if n <= len(t.nodeIdx) {
		return
	}
	grown := make([]int32, n*2)
	for i := len(t.nodeIdx); i < len(grown); i++ {
		grown[i] = -1
	}
	copy(grown, t.nodeIdx)
	t.nodeIdx = grown
}

// scanAdd queues v's neighborhood scan for lane li at the next freeze.
// Distinct nodes are deduplicated here, at crossing time: a node queued
// by k lanes holds one scanNodes entry with k bits in its packed lane
// mask. Churn between Steps can depart a queued node and hand its slot
// to a newborn before the next freeze, so the slot -> entry map is
// trusted only when the entry names v itself, generation included; the
// dead node's entry then scans nothing.
func (t *Traffic) scanAdd(li int, v graph.Handle) {
	t.growNodeIdx(int(v.Slot) + 1)
	k := t.nodeIdx[v.Slot]
	if k < 0 || t.scanNodes[k] != v {
		k = int32(len(t.scanNodes))
		t.nodeIdx[v.Slot] = k
		t.scanNodes = append(t.scanNodes, v)
		for i := 0; i < t.stride; i++ {
			t.scanLanes = append(t.scanLanes, 0)
		}
	}
	t.scanLanes[int(k)*t.stride+li>>6] |= 1 << (li & 63)
}

// clearScans drops every pending scan entry, resetting the slot map.
// Called after a drain, and on a Step with no in-flight lanes — pending
// entries must never survive an AdvanceRound, or the slot map could go
// stale under churn.
func (t *Traffic) clearScans() {
	for _, v := range t.scanNodes {
		t.nodeIdx[v.Slot] = -1
	}
	t.scanNodes = t.scanNodes[:0]
	t.scanLanes = t.scanLanes[:0]
}

// clearScanLane clears lane li's bit from every pending scan mask (lane
// index reuse; see Inject).
func (t *Traffic) clearScanLane(li int) {
	wi, mask := li>>6, uint64(1)<<(li&63)
	for k := range t.scanNodes {
		t.scanLanes[k*t.stride+wi] &^= mask
	}
}

// noteDeath maintains the shared pre-round counter and decrements the
// informed counter of exactly the in-flight lanes whose bit is set on
// the dead slot. Log entries naming the dead node drop at the next
// freeze.
func (t *Traffic) noteDeath(h graph.Handle) {
	if t.g.BirthSeq(h) < t.roundStartSeq {
		t.preRoundAlive--
	}
	if len(t.inFlight) == 0 {
		return
	}
	if iw := t.informed.wordsOf(h); iw != nil {
		for i, w := range iw {
			w &= t.liveMask[i]
			for ; w != 0; w &= w - 1 {
				t.lanes[i<<6|bits.TrailingZeros64(w)].informedAlive--
			}
		}
	}
}

// noteEdge classifies a fresh request edge against every in-flight
// lane's cut at once: the XOR of the endpoints' informed words, masked
// by the in-flight lanes, is exactly the lanes for which the edge has
// one informed endpoint — a single event can be a candidate for some
// messages and internal or irrelevant for others, and the fan-out
// iterates only the set bits.
func (t *Traffic) noteEdge(u, v graph.Handle) {
	if len(t.inFlight) == 0 {
		return
	}
	uw := t.informed.wordsOf(u)
	vw := t.informed.wordsOf(v)
	if uw == nil && vw == nil {
		return // no lane informs either endpoint: internal to no cut
	}
	for i := 0; i < t.stride; i++ {
		var uwi, vwi uint64
		if uw != nil {
			uwi = uw[i]
		}
		if vw != nil {
			vwi = vw[i]
		}
		cand := (uwi ^ vwi) & t.liveMask[i]
		for ; cand != 0; cand &= cand - 1 {
			bit := cand & -cand
			li := i<<6 | bits.TrailingZeros64(cand)
			x, s := u, v
			if uwi&bit != 0 {
				x, s = v, u
			}
			if t.onStage != nil && !t.onStage(li, x, s) {
				continue
			}
			t.appendSender(li, x, s)
		}
	}
}

// --- the batched freeze ---

// freeze compacts the shards' cut logs to the live cut of the current
// snapshot, then drains the combined pending frontier into them — one
// worker sweep across all messages per pass — and records each log's
// length as its frozen cut. Compacting first bounds a log's peak by its
// survivors plus this round's discoveries; the drained entries need no
// check, since the drain logs only edges from alive crossers toward
// alive neighbors that their in-flight lanes do not inform. Entries
// appended after the freeze — churn edges of the upcoming advance — lie
// beyond the frozen length and wait one round. Freeze runs even with no
// message in flight, so no pending scan or stale entry outlives it.
func (t *Traffic) freeze() {
	t.forEachShard(func(w int) { t.compactShard(w) })
	t.drainFrontiers()
	for w := range t.shards {
		t.shards[w].frozen = len(t.shards[w].log)
	}
}

// drainFrontiers performs the one-off neighborhood scans of every node
// that crossed any lane's cut since the last freeze. Each distinct node
// is scanned exactly once — deduplicating the work M separate engines
// would repeat, and confining graph.Neighbors' in-list compaction side
// effect to a single scanner — and each discovered cut edge fans out
// over the set bits of the node's pending lane mask, minus the lanes
// already considering the neighbor informed. The per-scan scratch dedups
// the multigraph neighborhood once; filtering per lane after the shared
// dedup appends exactly the pairs the single engine's
// informed-check-then-mark would.
func (t *Traffic) drainFrontiers() {
	if len(t.scanNodes) == 0 {
		return
	}
	if t.par == 1 {
		scratch := &t.scratch[0]
		for k, v := range t.scanNodes {
			if !t.scanLive(k) {
				continue // queued only by lanes that since finished
			}
			scratch.Reset()
			t.g.Neighbors(v, func(x graph.Handle) bool {
				if scratch.Mark(x) {
					t.fanOut(k, x, v)
				}
				return true
			})
		}
	} else {
		t.drainFrontiersSharded()
	}
	t.clearScans()
}

// scanLive reports whether any in-flight lane queued scan entry k.
func (t *Traffic) scanLive(k int) bool {
	lw := t.scanLanes[k*t.stride : (k+1)*t.stride]
	for i, w := range lw {
		if w&t.liveMask[i] != 0 {
			return true
		}
	}
	return false
}

// fanOut logs the discovered cut edge (v -> x) for every in-flight
// lane that queued scan entry k and does not already consider x
// informed — one masked word operation per 64 lanes, iterating set bits
// only. Owner-shard context: the caller guarantees x's slot belongs to
// the running shard (or the engine is serial).
func (t *Traffic) fanOut(k int, x, v graph.Handle) {
	lw := t.scanLanes[k*t.stride : (k+1)*t.stride]
	iw := t.informed.wordsOf(x)
	for i, w := range lw {
		w &= t.liveMask[i]
		if iw != nil {
			w &^= iw[i]
		}
		for ; w != 0; w &= w - 1 {
			li := i<<6 | bits.TrailingZeros64(w)
			if t.onStage != nil && !t.onStage(li, x, v) {
				continue
			}
			t.appendSender(li, x, v)
		}
	}
}

// drainFrontiersSharded is the parallel drain: chunk-claimed scans over
// the distinct node list stage each discovered edge for its receiver's
// owner shard, then every shard drains its buffers in chunk order — the
// single engine's two-barrier pattern, batched across lanes.
func (t *Traffic) drainFrontiersSharded() {
	nScan := len(t.scanNodes)
	nChunks := nScan
	if max := t.par * scanChunksPerWorker; nChunks > max {
		nChunks = max
	}
	if need := nChunks * t.par; len(t.stage) < need {
		grown := make([][]laneCutEdge, need)
		copy(grown, t.stage)
		t.stage = grown
	}

	// Scan: lane-independent — the packed masks and informed words are
	// read-only here, so the staged edges carry only the receiver and
	// the scan index; the per-lane filter runs at the owner-shard merge.
	t.chunkNext.Store(0)
	t.forEachShard(func(w int) {
		scratch := &t.scratch[w]
		for {
			c := int(t.chunkNext.Add(1)) - 1
			if c >= nChunks {
				return
			}
			buf := t.stage[c*t.par : (c+1)*t.par]
			for k := c * nScan / nChunks; k < (c+1)*nScan/nChunks; k++ {
				if !t.scanLive(k) {
					continue
				}
				v := t.scanNodes[k]
				scratch.Reset()
				t.g.Neighbors(v, func(x graph.Handle) bool {
					if scratch.Mark(x) {
						s := t.owner(x.Slot)
						buf[s] = append(buf[s], laneCutEdge{recv: x, scan: int32(k)})
					}
					return true
				})
			}
		}
	})

	// Merge: each shard drains the buffers addressed to it in chunk
	// order, fanning each edge out across its packed lane mask into its
	// own cut log.
	t.forEachShard(func(w int) {
		for c := 0; c < nChunks; c++ {
			buf := t.stage[c*t.par+w]
			for _, ce := range buf {
				t.fanOut(int(ce.scan), ce.recv, t.scanNodes[ce.scan])
			}
			t.stage[c*t.par+w] = buf[:0]
		}
	})
}

// compactShard is the freeze's compaction of one shard's cut log,
// batched across every lane: it keeps an entry, in place, only while its
// lane's message is still in flight under the same incarnation, both
// endpoints are alive, and the lane does not yet inform the receiver.
func (t *Traffic) compactShard(w int) {
	sh := &t.shards[w]
	g := t.g
	n := 0
	for _, e := range sh.log {
		li := int(e.tag & laneIdxMask)
		if t.laneTag[li] != e.tag || !g.IsAlive(e.send) || !g.IsAlive(e.recv) || t.informed.has(e.recv, li) {
			continue
		}
		sh.log[n] = e
		n++
	}
	sh.log = sh.log[:n]
}

// admitShard runs the admission test over one shard's frozen log
// prefix, batched across lanes: a frozen entry admits its receiver into
// its lane when the receiver survived the advance and the sender
// qualifies (any frozen sender under Asynchronous semantics, a
// still-alive one under Discretized). The sweep sets the admitted pair's
// informed bit itself, which both dedups the pair's further entries —
// each (receiver, lane) is emitted at most once — and is safe in
// parallel, since a shard reads and writes the informed words of its own
// receivers only. The rest of each crossing applies at the serial merge.
func (t *Traffic) admitShard(w int) {
	sh := &t.shards[w]
	g := t.g
	async := t.opts.Mode == Asynchronous
	sh.adm = sh.adm[:0]
	for _, e := range sh.log[:sh.frozen] {
		li := int(e.tag & laneIdxMask)
		if !(async || g.IsAlive(e.send)) || !g.IsAlive(e.recv) || t.informed.has(e.recv, li) {
			continue
		}
		t.informed.set(e.recv, li)
		sh.adm = append(sh.adm, laneCrossing{v: e.recv, li: int32(li)})
	}
}

// laneFootprint reports the allocated lane count and, per lane index,
// the cut-log entries naming it (stale incarnations included) — the
// quantities the retirement property test tracks to pin memory at
// O(live messages), not O(all ever injected).
func (t *Traffic) laneFootprint() (lanes int, entries []int) {
	entries = make([]int, len(t.lanes))
	for _, ln := range t.lanes {
		if ln != nil {
			lanes++
		}
	}
	for w := range t.shards {
		for _, e := range t.shards[w].log {
			entries[e.tag&laneIdxMask]++
		}
	}
	return lanes, entries
}

// TrafficMemStats describes a plane's packed informed-state layout and
// its cut-log footprint; see MemStats.
type TrafficMemStats struct {
	// Slots is the arena-slot span of the packed state (grown
	// amortized-doubling, exactly as graph.Marks grows).
	Slots int
	// Lanes is the number of lane slots allocated — the peak simultaneous
	// message count, the packed layout's capacity denominator.
	Lanes int
	// WordsPerSlot is ceil(Lanes/64): the packed words each arena slot
	// carries.
	WordsPerSlot int
	// PackedInformedBytes is the plane-owned informed-state footprint:
	// the lane-membership words plus the shared per-slot epoch and
	// generation, for all lanes together.
	PackedInformedBytes int
	// CutLogEntries is the number of (receiver, lane, sender) candidate
	// entries the shards' cut logs hold, and CutLogBytes the capacity the
	// logs keep allocated for them.
	CutLogEntries int
	CutLogBytes   int
	// MarksBaselineBytes is what the same membership state costs in the
	// pre-packing layout of one graph.Marks per lane: 12 bytes (an
	// 8-byte epoch plus a 4-byte generation) per slot per lane.
	MarksBaselineBytes int
}

// MemStats reports the plane's informed-state memory layout — the
// numbers behind the packed-bitset design: PackedInformedBytes/Lanes
// versus MarksBaselineBytes/Lanes is the per-lane saving (≈ 96× at
// M = 1024, since an epoch+gen pair per slot per lane collapses to one
// bit plus a 1/M share of the shared per-slot epoch/gen) — and the cut
// logs' entry count and allocated bytes.
func (t *Traffic) MemStats() TrafficMemStats {
	st := TrafficMemStats{
		Slots:        t.informed.slots(),
		Lanes:        len(t.lanes),
		WordsPerSlot: t.stride,
	}
	st.PackedInformedBytes = t.informed.footprintBytes()
	st.MarksBaselineBytes = st.Slots * 12 * st.Lanes
	for w := range t.shards {
		log := t.shards[w].log
		st.CutLogEntries += len(log)
		st.CutLogBytes += cap(log) * int(unsafe.Sizeof(cutEntry{}))
	}
	return st
}

// --- injection schedules ---

// TrafficSchedule generates the injection steps of the named schedule:
// message i of `messages` is injected after schedule[i] plane Steps.
// Schedules:
//
//   - "burst": every message at step 0;
//   - "staggered": one message every `gap` steps (0, gap, 2·gap, …);
//   - "poisson": Poisson arrivals at rate 1/gap per step (the continuous
//     analogue of staggered), drawn deterministically from seed.
//
// gap must be >= 1 (it is ignored for burst); the steps come back sorted.
func TrafficSchedule(schedule string, messages, gap int, seed uint64) ([]int, error) {
	if messages < 1 {
		return nil, fmt.Errorf("flood: schedule needs messages >= 1, got %d", messages)
	}
	if gap < 1 && schedule != "burst" {
		return nil, fmt.Errorf("flood: schedule %q needs gap >= 1, got %d", schedule, gap)
	}
	steps := make([]int, 0, messages)
	switch schedule {
	case "burst":
		for i := 0; i < messages; i++ {
			steps = append(steps, 0)
		}
	case "staggered":
		for i := 0; i < messages; i++ {
			steps = append(steps, i*gap)
		}
	case "poisson":
		r := rng.New(seed)
		rate := 1 / float64(gap)
		for step := 0; len(steps) < messages; step++ {
			for k := dist.Poisson(r, rate); k > 0 && len(steps) < messages; k-- {
				steps = append(steps, step)
			}
		}
	default:
		return nil, fmt.Errorf("flood: unknown schedule %q (want burst, staggered or poisson)", schedule)
	}
	return steps, nil
}
