package sim

import (
	"math/bits"
	"runtime"
	"testing"
	"weak"
)

// blocksInUse counts the store's blocks that are not on the free list.
func (w *timingWheel) blocksInUse() int {
	n := len(w.chunks) * chunkBlocks
	for blk := w.free; blk != nil; blk = blk.next {
		n--
	}
	return n
}

// occupiedSlots counts the wheel's non-empty buckets across all levels.
func (w *timingWheel) occupiedSlots() int {
	n := 0
	for lvl := range w.occ {
		for _, word := range w.occ[lvl] {
			n += bits.OnesCount64(word)
		}
	}
	return n
}

// rolling is a schedule whose pending population peaks at a known size:
// a window of events that each schedule one successor when they fire
// (short delays at level 0, long ones cascading from level 1, one past
// the wheels into the overflow heap) plus one same-tick flood, all queued
// up front. The population is window+flood until the flood drains, then
// window until the successor budget is spent, then it drains to zero.
// With t set, every dispatch checks the block store against the pending
// events.
type rolling struct {
	t      *testing.T
	e      *Engine
	rng    RNG
	budget int

	maxOcc, maxInUse int
}

const (
	rollWindow = 600
	rollFlood  = 1000
	rollPeak   = rollWindow + rollFlood
	rollBudget = 20000
)

func (r *rolling) start() {
	r.rng.Seed(9)
	r.budget = rollBudget
	for i := 0; i < rollWindow; i++ {
		r.e.ScheduleEvent(r.e.Now().Add(r.delay()), r, 0, 0)
	}
	flood := Time(3 * Microsecond)
	for i := 0; i < rollFlood; i++ {
		r.e.ScheduleEvent(flood, r, 1, 0)
	}
	r.check()
}

// delay mixes datapath-scale delays (level 0) with timer-scale ones
// (level 1 and up) and, rarely, one beyond the wheels' span.
func (r *rolling) delay() Duration {
	switch x := r.rng.Intn(1000); {
	case x == 0:
		return 2 * 3600 * Second
	case x < 100:
		return Duration(1 + r.rng.Intn(int(5*Millisecond)))
	default:
		return Duration(1 + r.rng.Intn(int(3*Microsecond)))
	}
}

func (r *rolling) HandleEvent(kind uint8, _ uint64) {
	if kind == 0 && r.budget > 0 {
		r.budget--
		r.e.ScheduleEvent(r.e.Now().Add(r.delay()), r, 0, 0)
	}
	r.check()
}

// check asserts the store's bound: the blocks in use never exceed the
// pending events' worth of full blocks plus one partly filled block per
// occupied slot.
func (r *rolling) check() {
	if r.t == nil {
		return
	}
	w := &r.e.queue
	inUse, occ := w.blocksInUse(), w.occupiedSlots()
	r.maxOcc, r.maxInUse = max(r.maxOcc, occ), max(r.maxInUse, inUse)
	if w.size > rollPeak {
		r.t.Fatalf("%d events pending, the schedule peaks at %d", w.size, rollPeak)
	}
	if inUse > w.size/blockEvents+occ {
		r.t.Fatalf("%d blocks in use for %d pending events in %d occupied slots", inUse, w.size, occ)
	}
}

// TestBlockStoreFollowsPending pins the block store's memory: blocks in
// use stay within the pending events' bound throughout a run, the store
// grows only past what is in use, every block is back on the free list
// when the wheel empties, and the same schedule after Engine.Reset
// allocates nothing.
func TestBlockStoreFollowsPending(t *testing.T) {
	e := NewEngine()
	r := &rolling{t: t, e: e}
	r.start()
	if e.Pending() != rollPeak {
		t.Fatalf("schedule queued %d events, want %d", e.Pending(), rollPeak)
	}
	e.Run()
	w := &e.queue
	if n := w.blocksInUse(); n != 0 {
		t.Fatalf("wheel empty, %d blocks still in use", n)
	}
	// A cascade holds one block beyond its events while it runs.
	if total, bound := len(w.chunks)*chunkBlocks, rollPeak/blockEvents+r.maxOcc+1; total >= bound+chunkBlocks {
		t.Fatalf("store holds %d blocks; in use peaked at %d, bounded by %d", total, r.maxInUse, bound)
	}
	if r.maxOcc == 0 || r.maxInUse < rollFlood/blockEvents {
		t.Fatalf("schedule too thin to test the bound: %d occupied slots, %d blocks at most", r.maxOcc, r.maxInUse)
	}

	r.t = nil // no per-dispatch checks: what is measured is the run alone
	if allocs := testing.AllocsPerRun(3, func() {
		e.Reset()
		r.start()
		e.Run()
	}); allocs != 0 {
		t.Fatalf("the same schedule after Reset allocates %.1f/run, want 0", allocs)
	}
	if n := w.blocksInUse(); n != 0 {
		t.Fatalf("wheel empty after the reset runs, %d blocks still in use", n)
	}
}

// TestEngineResetReleasesHandlers: after Engine.Reset nothing scheduled in
// the previous run may keep its handler alive — neither a pending event
// (in a bucket at any level, the overflow heap, the frontier) nor the
// stale copy a dispatched one leaves in a drained block or the consumed
// frontier.
func TestEngineResetReleasesHandlers(t *testing.T) {
	e := NewEngine()
	hw := scheduleForReset(e)
	runtime.GC()
	if hw.Value() == nil {
		t.Fatal("handler collected while its events are pending: the check below would prove nothing")
	}
	e.Reset()
	runtime.GC()
	if hw.Value() != nil {
		t.Fatal("Engine.Reset left a handler of the previous run reachable")
	}
	runtime.KeepAlive(e) // the engine, not its death, must drop the handler
}

// scheduleForReset queues events for a fresh handler at every wheel level
// and past the wheels, runs the engine partway, and returns only a weak
// pointer to the handler.
//
//go:noinline
func scheduleForReset(e *Engine) weak.Pointer[countingHandler] {
	h := &countingHandler{}
	for i := 0; i < 40; i++ {
		e.ScheduleEvent(Time(1<<wheelTickShift+i), h, 0, 0)     // level 0, one crowded slot
		e.ScheduleEvent(Time(Duration(i)*Microsecond), h, 1, 0) // level 0 and 1
	}
	e.ScheduleEvent(Time(10*Millisecond), h, 2, 0)
	e.ScheduleEvent(Time(10*Second), h, 2, 0)
	e.ScheduleEvent(Time(2*3600*Second), h, 3, 0) // overflow
	e.Schedule(Time(20*Microsecond), func() { h.fired[3]++ })
	e.RunUntil(Time(15 * Microsecond))
	return weak.Make(h)
}
