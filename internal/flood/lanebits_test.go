package flood

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
)

// lb returns a laneBits ready for tests at the given stride.
func lb(stride int) *laneBits {
	b := &laneBits{}
	b.init(stride)
	return b
}

func h(slot, gen uint32) graph.Handle { return graph.Handle{Slot: slot, Gen: gen} }

// TestLaneBitsSetHasClear pins the basic membership contract at lane
// indices on both sides of every word seam the suite cares about:
// set/has per (slot, lane), independence across lanes sharing a slot,
// and clearing one lane's column without touching its seam neighbor.
func TestLaneBitsSetHasClear(t *testing.T) {
	t.Parallel()
	b := lb(3) // lanes 0..191
	v := h(5, 1)
	for _, li := range []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 191} {
		if b.has(v, li) {
			t.Fatalf("lane %d set before any write", li)
		}
	}
	b.set(v, 63)
	b.set(v, 64)
	if !b.has(v, 63) || !b.has(v, 64) {
		t.Fatal("bits straddling the 64-lane seam not both set")
	}
	if b.has(v, 62) || b.has(v, 65) {
		t.Fatal("neighboring lanes leaked")
	}
	if got := b.onesOf(v, nil); got != 2 {
		t.Fatalf("onesOf = %d, want 2", got)
	}
	mask := []uint64{1 << 63, 0, 0}
	if got := b.onesOf(v, mask); got != 1 {
		t.Fatalf("masked onesOf = %d, want 1", got)
	}
	b.clearLane(63)
	if b.has(v, 63) || !b.has(v, 64) {
		t.Fatal("clearLane(63) did not confine itself to lane 63")
	}
}

// TestLaneBitsGenCurrency pins the shared-generation discipline: a
// handle from a previous occupant of the slot reads as all-zero, and
// claiming the slot for a new generation zeroes the stale words.
func TestLaneBitsGenCurrency(t *testing.T) {
	t.Parallel()
	b := lb(2)
	old, cur := h(3, 1), h(3, 2)
	b.set(old, 70)
	if b.wordsOf(cur) != nil {
		t.Fatal("new generation read the old occupant's words")
	}
	b.set(cur, 5)
	if b.has(cur, 70) {
		t.Fatal("stale bit survived the generation claim")
	}
	if b.wordsOf(old) != nil || b.has(old, 5) {
		t.Fatal("old generation still reads after the slot moved on")
	}
}

// TestLaneBitsEpochReset pins the O(1) reset: after reset every slot
// reads as all-zero, and a post-reset claim does not resurrect pre-reset
// bits.
func TestLaneBitsEpochReset(t *testing.T) {
	t.Parallel()
	b := lb(1)
	v := h(9, 4)
	b.set(v, 3)
	b.reset()
	if b.wordsOf(v) != nil || b.has(v, 3) {
		t.Fatal("bits survived reset")
	}
	b.set(v, 7)
	if b.has(v, 3) {
		t.Fatal("pre-reset bit resurrected by the claim")
	}
}

// TestLaneBitsClearLane pins lane-index reuse: clearing a lane column
// zeroes that lane's bit on every slot while leaving all other lanes
// untouched.
func TestLaneBitsClearLane(t *testing.T) {
	t.Parallel()
	b := lb(2)
	vs := []graph.Handle{h(0, 1), h(4, 2), h(9, 1)}
	for _, v := range vs {
		b.set(v, 64)
		b.set(v, 65)
	}
	b.clearLane(64)
	for _, v := range vs {
		if b.has(v, 64) {
			t.Fatalf("slot %d kept lane 64 after clearLane", v.Slot)
		}
		if !b.has(v, 65) {
			t.Fatalf("slot %d lost lane 65 to clearLane(64)", v.Slot)
		}
	}
}

// TestLaneBitsReshape pins stride growth at the word seams the plane
// crosses as lanes 64 and 128 are allocated: every previously set bit
// survives a reshape, validity metadata included, and the widened words
// accept bits in the new high word.
func TestLaneBitsReshape(t *testing.T) {
	t.Parallel()
	b := lb(1)
	alive, stale := h(2, 5), h(7, 1)
	b.set(alive, 0)
	b.set(alive, 63)
	b.set(stale, 40)
	b.set(h(7, 2), 41) // the slot moves on: stale must stay invalid across reshape

	for _, stride := range []int{2, 3} {
		b.reshape(stride)
		if !b.has(alive, 0) || !b.has(alive, 63) {
			t.Fatalf("stride %d: bits lost in reshape", stride)
		}
		if b.wordsOf(stale) != nil {
			t.Fatalf("stride %d: invalidated slot resurrected by reshape", stride)
		}
		hi := stride*64 - 1
		b.set(alive, hi)
		if !b.has(alive, hi) {
			t.Fatalf("stride %d: high word not writable after reshape", stride)
		}
		b.clearLane(hi)
	}
	if got := b.onesOf(alive, nil); got != 2 {
		t.Fatalf("onesOf after reshapes = %d, want 2", got)
	}
}

// TestLaneBitsFootprint sanity-checks the memory accounting MemStats
// reports: words + shared epoch/gen, so per-lane cost at capacity M is
// slots·(stride·8 + 12)/M bytes — at M = 64 (stride 1) that is 20 bytes
// per slot shared by 64 lanes versus 12 bytes per slot for EACH
// Marks-per-lane.
func TestLaneBitsFootprint(t *testing.T) {
	t.Parallel()
	b := lb(1)
	b.grow(100)
	slots := b.slots()
	want := slots*8 + slots*8 + slots*4
	if got := b.footprintBytes(); got != want {
		t.Fatalf("footprintBytes = %d, want %d", got, want)
	}
	marksPerLane := 12 * slots * 64 // 64 lanes of Marks at the same span
	if got := b.footprintBytes(); got*4 > marksPerLane {
		t.Fatalf("packed footprint %d not >= 4x smaller than %d", got, marksPerLane)
	}
}
