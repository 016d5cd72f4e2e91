package sim

import (
	"sort"
	"testing"
)

// Edge-case coverage for Engine.ScheduleRankedBatch — the barrier drain
// path. FuzzShardMerge explores the space randomly; these pin the
// boundary behaviors by name: empty batches, single entries, a batch
// minimum tying the wheel's next pop on the (time, rank) key, and the
// ready-frontier watermark after a window consumed part of a slot.

// TestScheduleRankedBatchEmpty: empty and nil batches are no-ops — no
// past-time check against a phantom minimum, no cache disturbance.
func TestScheduleRankedBatchEmpty(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	e.ScheduleRanked(100, 7, h, 0, 1)
	e.ScheduleRankedBatch(h, nil)
	e.ScheduleRankedBatch(h, []RankedEvent{})
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after empty batches, want 1", e.Pending())
	}
	if at, ok := e.NextEventTime(); !ok || at != 100 {
		t.Fatalf("next = %d,%v after empty batches, want 100", at, ok)
	}
	e.RunWindow(200)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("executed %v, want [1]", got)
	}
}

// TestScheduleRankedBatchSingle: a one-entry batch behaves exactly like
// ScheduleRanked — same merge position, same cache update.
func TestScheduleRankedBatchSingle(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	e.ScheduleRanked(100, 20, h, 0, 2)
	e.ScheduleRankedBatch(h, []RankedEvent{{At: 100, Rank: 10, Arg: 1}})
	if at, ok := e.NextEventTime(); !ok || at != 100 {
		t.Fatalf("next = %d,%v, want 100 (cache lowered by batch)", at, ok)
	}
	e.ScheduleRankedBatch(h, []RankedEvent{{At: 50, Rank: 99, Arg: 0}})
	if at, ok := e.NextEventTime(); !ok || at != 50 {
		t.Fatalf("next = %d,%v, want 50", at, ok)
	}
	e.RunWindow(200)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("executed %v, want [0 1 2] — (at, rank) order", got)
	}
}

// TestScheduleRankedBatchTieWithWheelPops: after a window has popped part
// of the queue, a batch lands whose minimum shares its firing *time* with
// the wheel's next pending event, with ranks straddling it. The batch
// events arrive below the advanced cursor (the late path), so this pins
// the late-heap-vs-ready merge at an equal-time key: rank alone must
// decide.
func TestScheduleRankedBatchTieWithWheelPops(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	e.ScheduleRanked(100, 50, h, 0, 1)
	e.ScheduleRanked(200, 10, h, 0, 2)
	e.RunWindow(150) // pops event 1; cursor is at tick 0, next pending (200, 10)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("first window executed %v, want [1]", got)
	}
	e.ScheduleRankedBatch(h, []RankedEvent{
		{At: 200, Rank: 20, Arg: 4}, // same time, higher rank: after
		{At: 300, Rank: 1, Arg: 5},  // later time, lowest rank: last
		{At: 200, Rank: 5, Arg: 3},  // same time, lower rank: before
	})
	e.RunWindow(1000)
	want := []uint64{1, 3, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v — equal-time merge must order by rank", got, want)
		}
	}
}

// TestScheduleRankedBatchPartialConsumption: a window consumes part of a
// drained slot (leaving the ready frontier's head watermark mid-array),
// then a batch inserts events both into the partially consumed region's
// tick (below the cursor — the late path) and into untouched future
// slots. Everything remaining must still pop in exact (at, rank) order —
// the watermark cannot hide, duplicate, or reorder survivors.
func TestScheduleRankedBatchPartialConsumption(t *testing.T) {
	const tick = Time(1) << 14 // one wheel tick (see wheel.go)
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}

	type key struct {
		at   Time
		rank uint64
	}
	var all []key
	sched := func(batch []RankedEvent) {
		for _, ev := range batch {
			all = append(all, key{ev.At, ev.Rank})
		}
		e.ScheduleRankedBatch(h, batch)
	}

	// Batch A: a cluster inside one tick around the future cut point,
	// plus a tail spread across higher wheel levels.
	cut := 3*tick + tick/2
	var a []RankedEvent
	rank := uint64(1)
	for _, at := range []Time{
		10, tick + 5, // early, fully consumed
		3*tick + 100, 3*tick + 200, cut + 100, cut + 200, // cluster straddling the cut
		5 * tick, 300 * tick, 70000 * tick, // tail: same level, mid level, cascade
	} {
		a = append(a, RankedEvent{At: at, Rank: rank, Arg: rank})
		rank++
	}
	sched(a)

	// Consume through the cut: the cluster's slot drains into ready and
	// is only partially executed, parking the head watermark mid-array.
	e.RunWindow(cut)

	// Batch B: same tick as the partially consumed cluster (now at or
	// below the cursor — late-path placement) and future slots.
	var b []RankedEvent
	for _, at := range []Time{cut + 150, cut + 250, 4 * tick, 200 * tick, 80000 * tick} {
		b = append(b, RankedEvent{At: at, Rank: rank, Arg: rank})
		rank++
	}
	sched(b)

	e.RunWindow(100000 * tick)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after the full drain", e.Pending())
	}

	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].rank < all[j].rank
	})
	if len(got) != len(all) {
		t.Fatalf("executed %d events, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i] != all[i].rank {
			t.Fatalf("order diverged at %d: got rank %d, want %d (at=%d)", i, got[i], all[i].rank, all[i].at)
		}
	}
}

// TestScheduleRankedBatchRecycledSlots: repeated batch-drain cycles push
// each window's events through the wheel's block store (a drained slot's
// blocks go back on the free list and carry later slots' events); order
// must hold across many reuse generations.
func TestScheduleRankedBatchRecycledSlots(t *testing.T) {
	const tick = Time(1) << 14
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	rank := uint64(1)
	total := 0
	for round := 0; round < 50; round++ {
		base := Time(round+1) * 7 * tick
		var batch []RankedEvent
		for k := 0; k < 8; k++ {
			batch = append(batch, RankedEvent{At: base + Time(k*200), Rank: rank, Arg: rank})
			rank++
		}
		e.ScheduleRankedBatch(h, batch)
		total += len(batch)
		e.RunWindow(base + 2*tick)
	}
	if len(got) != total {
		t.Fatalf("executed %d events, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("order diverged at %d: got rank %d after %d", i, got[i], got[i-1])
		}
	}
}

// TestLimitWindow: an event may shrink the window it is executing inside
// — RunWindow must stop before the new end and leave later events
// pending with the cache primed.
func TestLimitWindow(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	clamp := handlerFunc(func(_ uint8, arg uint64) {
		got = append(got, arg)
		e.LimitWindow(150)
		e.LimitWindow(500) // growing is not possible
	})
	e.ScheduleEvent(10, clamp, 0, 1)
	e.ScheduleEvent(100, h, 0, 2)
	e.ScheduleEvent(200, h, 0, 3)
	e.RunWindow(1000)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("executed %v, want [1 2] — clamp must cut the window at 150", got)
	}
	if at, ok := e.NextEventTime(); !ok || at != 200 {
		t.Fatalf("next = %d,%v, want 200 still pending", at, ok)
	}
	// The clamp applies to the current window only.
	e.RunWindow(1000)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("executed %v, want [1 2 3] after a fresh window", got)
	}
}
