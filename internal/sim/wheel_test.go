package sim

import (
	"encoding/binary"
	"testing"
)

// wheelModel drives a timingWheel and a reference eventHeap side by side
// on the same schedule and asserts identical pop order. The heap's
// (at, rank) ordering is the determinism contract golden fixtures depend
// on; any divergence is a wheel bug by definition.
type wheelModel struct {
	wheel timingWheel
	ref   eventHeap
	rank  uint64
	now   Time
}

func (m *wheelModel) push(at Time) {
	if at < m.now {
		at = m.now
	}
	m.rank++
	ev := event{at: at, rank: m.rank}
	m.wheel.push(ev)
	m.ref.push(ev)
}

// pop dispatches one event from both structures the way the engine's run
// loop does — the wheel through its front/drop pair, the heap by reading
// its root and dropping it — and compares. Returns false when empty.
func (m *wheelModel) pop(t *testing.T) bool {
	t.Helper()
	if len(m.ref) == 0 {
		if m.wheel.size != 0 {
			t.Fatalf("reference heap empty but wheel reports %d pending", m.wheel.size)
		}
		return false
	}
	want := m.ref[0]
	m.ref.drop()
	ev, late := m.wheel.front()
	got := *ev
	m.wheel.drop(late)
	if got.at != want.at || got.rank != want.rank {
		t.Fatalf("dispatch order diverged: wheel (at=%d rank=%d), heap (at=%d rank=%d)",
			got.at, got.rank, want.at, want.rank)
	}
	m.now = got.at
	return true
}

func (m *wheelModel) drainAll(t *testing.T) {
	t.Helper()
	for m.pop(t) {
	}
}

// TestWheelMatchesHeap sweeps schedule shapes that exercise every wheel
// path: same-tick floods (ready ordering), near-future buckets, cascades
// across all levels, far-future overflow with rollover refills, and
// interleaved push/pop so late arrivals land at or behind the cursor.
func TestWheelMatchesHeap(t *testing.T) {
	spans := []int64{
		1,                                        // everything in one tick: pure ready ordering
		1 << wheelTickShift,                      // adjacent level-0 slots
		1 << (wheelTickShift + wheelLevelBits),   // level-1 cascades
		1 << (wheelTickShift + 2*wheelLevelBits), // level-2 cascades
		1 << (wheelTickShift + 3*wheelLevelBits), // level-3 cascades
		1 << (wheelTickShift + wheelSpanBits + 2), // overflow + rollover
	}
	for _, span := range spans {
		for seed := uint64(1); seed <= 3; seed++ {
			m := &wheelModel{}
			r := NewRNG(seed*7919 + uint64(span))
			for i := 0; i < 4000; i++ {
				m.push(m.now + Time(r.Uint64()%uint64(span)+1)*Picoseconds(1))
				// Interleave pops so the cursor moves while pushes
				// continue, and occasionally schedule at the exact
				// current time (tick <= cursor path).
				if r.Intn(3) == 0 {
					m.pop(t)
					m.push(m.now)
				}
			}
			m.drainAll(t)
		}
	}
}

// TestWheelCrowdedTick: slots far past the insertion-sort range — the
// counting-sort drain and, inside one sub-tick run, the heapsort fallback —
// must still pop in exact (at, rank) order. Populations straddle both
// thresholds (33 and 1025 events), spread across one tick, packed into one
// sub-tick run, and all at a single instant.
func TestWheelCrowdedTick(t *testing.T) {
	const tick = 1 << wheelTickShift
	for _, n := range []int{insertionSortMax + 1, 200, wheelSlots + 1, 5000} {
		for _, width := range []int64{tick, tick >> subTickBits, 1} {
			m := &wheelModel{}
			r := NewRNG(uint64(n) ^ uint64(width))
			base := Time(7 * tick) // a tick of its own, ahead of the cursor
			for i := 0; i < n; i++ {
				m.push(base + Time(r.Intn(int(width))))
			}
			// A second crowded tick lands while the first drains.
			for i := 0; i < n; i++ {
				m.pop(t)
				m.push(base + Time(tick+r.Intn(int(width))))
			}
			m.drainAll(t)
		}
	}
}

// TestWheelGeometry pins the arithmetic the geometry rests on: level 0
// must span a propagation plus a serialization delay (2 µs + ~0.2 µs at
// the paper's defaults) so datapath events never cascade, and the widest
// shift any test in this file builds must fit a signed 64-bit Time.
func TestWheelGeometry(t *testing.T) {
	if span := Duration(wheelSlots << wheelTickShift); span < 4*Microsecond {
		t.Errorf("level 0 spans %d ps, want >= 4 µs", int64(span))
	}
	if top := wheelTickShift + wheelSpanBits + 8; top >= 63 {
		t.Errorf("test schedules shift by up to %d bits, overflowing Time", top)
	}
	if subTickBits > wheelTickShift {
		t.Errorf("sub-tick runs need %d in-tick bits, the tick has %d", subTickBits, wheelTickShift)
	}
}

// Picoseconds converts an integer count to a Time delta (test helper for
// readability in span arithmetic).
func Picoseconds(n int64) Time { return Time(n) }

// TestWheelRolloverJump: a lone far-future event beyond the wheels' span
// must be reached in one cursor jump, not by stepping windows.
func TestWheelRolloverJump(t *testing.T) {
	m := &wheelModel{}
	m.push(5)
	far := Time(int64(1) << (wheelTickShift + wheelSpanBits + 8))
	m.push(far)
	m.push(far + 3)
	m.drainAll(t)
	if m.now != far+3 {
		t.Fatalf("final time = %d, want %d", m.now, far+3)
	}
}

// FuzzEventOrder is the differential fuzz target: arbitrary byte streams
// decode into push/pop programs over the timing wheel and the reference
// heap, asserting identical pop order. It complements the seeded sweep
// above with adversarial schedules (bucket-boundary deltas, bursts at one
// tick, deep overflow churn).
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0x80, 8, 9})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x80, 0x80})
	seed := make([]byte, 64)
	binary.LittleEndian.PutUint64(seed, uint64(1)<<(wheelTickShift+wheelSpanBits))
	f.Add(seed)
	// One crowded tick ahead of the cursor: 40 pushes at 2^14 ps plus a
	// sub-tick offset, then pops.
	crowd := make([]byte, 0, 128)
	for i := 0; i < 40; i++ {
		crowd = append(crowd, 14, byte(i*37), byte(i%4))
	}
	f.Add(append(crowd, 0x87, 0x87, 0x87, 0x87, 0x87))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &wheelModel{}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op&0x80 != 0 {
				// Pop a small burst.
				for i := 0; i < int(op&0x07)+1; i++ {
					m.pop(t)
				}
				continue
			}
			// Push: delta magnitude from the op's low 6 bits, capped two
			// bits past the wheels' top window so a single push can land
			// beyond it (all levels AND the overflow/rollover path are
			// reachable), fine offset from the next two bytes.
			var off uint64
			if len(data) >= 2 {
				off = uint64(binary.LittleEndian.Uint16(data))
				data = data[2:]
			}
			sh := min(uint(op&0x3f), wheelTickShift+wheelSpanBits+2)
			delta := (uint64(1) << sh) + off
			m.push(m.now + Time(delta))
		}
		m.drainAll(t)
	})
}

// TestEngineResetReusable: after Reset, an engine must behave exactly like
// a fresh one — clock, rank-driven FIFO order, executed count, timers.
func TestEngineResetReusable(t *testing.T) {
	run := func(e *Engine) (order []int, now Time, executed uint64) {
		h := &countingHandler{}
		e.ScheduleEvent(40, h, 0, 0)
		e.Schedule(10, func() { order = append(order, 1) })
		e.Schedule(10, func() { order = append(order, 2) })
		tm := NewTimer(e, func() { order = append(order, 3) })
		tm.Arm(25)
		e.Run()
		return order, e.Now(), e.Executed()
	}

	fresh := NewEngine()
	wantOrder, wantNow, wantExec := run(fresh)

	reused := NewEngine()
	// Dirty the engine: leave pending events behind via Stop, advance the
	// clock, arm a timer that never fires.
	reused.Schedule(5, func() { reused.Stop() })
	reused.Schedule(90, func() {})
	lost := NewTimer(reused, func() { t.Error("stale timer fired after Reset") })
	lost.Arm(70)
	reused.Run()
	reused.Reset()
	lost.Reset()
	if reused.Pending() != 0 || reused.Now() != 0 || reused.Executed() != 0 {
		t.Fatalf("Reset left state: pending=%d now=%d executed=%d",
			reused.Pending(), reused.Now(), reused.Executed())
	}

	gotOrder, gotNow, gotExec := run(reused)
	if gotNow != wantNow || gotExec != wantExec || len(gotOrder) != len(wantOrder) {
		t.Fatalf("reset engine diverged: now=%d/%d executed=%d/%d order=%v/%v",
			gotNow, wantNow, gotExec, wantExec, gotOrder, wantOrder)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order after reset = %v, want %v", gotOrder, wantOrder)
		}
	}
}

// TestTimerResetUnblocksArm: without Timer.Reset after Engine.Reset, the
// stale pending flag would swallow the next Arm (the timer thinks an
// engine event is still queued). This is the exact coupling Engine.Reset's
// doc comment warns about.
func TestTimerResetUnblocksArm(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(100)
	e.RunUntil(50) // timer event still pending in the queue
	e.Reset()
	tm.Reset()
	tm.Arm(10)
	e.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times after engine+timer reset, want 1", fired)
	}
}

// TestRunUntilStopLeavesClock is the regression test for the RunUntil
// stop path: when Stop() fires during an event and the next pending event
// lies beyond the deadline, the clock must stay at the stopping event —
// the deadline assignment belongs only to the deadline-cut path.
func TestRunUntilStopLeavesClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() { e.Stop() })
	e.Schedule(50, func() { t.Error("event past Stop ran") })
	e.RunUntil(30)
	if e.Now() != 5 {
		t.Fatalf("Now = %d after Stop, want 5 (clock must not jump to the deadline)", int64(e.Now()))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// The deadline-cut path still advances the clock.
	e.RunUntil(40)
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want deadline 40", int64(e.Now()))
	}
}
