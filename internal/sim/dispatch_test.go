package sim

import "testing"

// dispatchModel drives an Engine's run loop and a reference eventHeap side
// by side. It is the Handler of every event it schedules: each dispatch
// checks (at, rank, kind, arg) against the heap's minimum, then schedules
// children while the handler runs — at the current instant (the wheel's
// late heap), one tick ahead, and one wheel level up — so handlers keep
// pushing into the queue the loop is reading. Kinds and args are random,
// so a dispatch that reads another event's payload shows.
type dispatchModel struct {
	t      *testing.T
	e      *Engine
	ref    eventHeap
	clk    Clock
	rng    *RNG
	budget int // children still to schedule; the run ends when it is spent

	lastAt   Time
	lastRank uint64

	// The bound of the run in progress: deadline for RunUntil, end for
	// RunWindow.
	deadline Time
	end      Time
	window   bool

	// Stop plan for RunUntil: stopBurst stops on an event that another
	// event at the same instant follows, stopLast on the last event due
	// at or before the deadline. stopped records that Stop was called.
	stopBurst, stopLast, stopped bool

	// Coverage: each path the test means to exercise must be hit.
	lateDispatches, burstStops, lastStops int
}

func newDispatchModel(t *testing.T, seed uint64) *dispatchModel {
	m := &dispatchModel{t: t, e: NewEngine(), clk: NewClock(1), rng: NewRNG(seed), budget: 20000}
	for i := 0; i < 64; i++ {
		m.schedule(Time(m.rng.Intn(1 << (wheelTickShift + 4))))
	}
	return m
}

// schedule queues one event on the engine and the reference heap alike.
func (m *dispatchModel) schedule(at Time) {
	rank := m.clk.Next()
	kind, arg := uint8(m.rng.Intn(256)), m.rng.Uint64()
	m.e.ScheduleRanked(at, rank, m, kind, arg)
	m.ref.push(event{at: at, rank: rank, kind: kind, arg: arg})
}

func (m *dispatchModel) HandleEvent(kind uint8, arg uint64) {
	m.t.Helper()
	if len(m.ref) == 0 {
		m.t.Fatalf("dispatch (at=%d kind=%d arg=%#x) with the reference heap empty", m.e.Now(), kind, arg)
	}
	want := m.ref[0]
	m.ref.drop()
	now, rank := m.e.Now(), m.e.Rank()
	if now != want.at || rank != want.rank || kind != want.kind || arg != want.arg {
		m.t.Fatalf("dispatch (at=%d rank=%d kind=%d arg=%#x), reference (at=%d rank=%d kind=%d arg=%#x)",
			now, rank, kind, arg, want.at, want.rank, want.kind, want.arg)
	}
	if m.window && now >= m.end {
		m.t.Fatalf("event at %d ran in a window ending at %d", now, m.end)
	}
	if !m.window && now > m.deadline {
		m.t.Fatalf("event at %d ran past deadline %d", now, m.deadline)
	}
	m.lastAt, m.lastRank = now, rank
	if len(m.e.queue.late) > 0 {
		m.lateDispatches++
	}

	if m.budget > 0 {
		m.budget -= 3
		switch m.rng.Intn(4) {
		case 0: // two at this instant: the late heap holds both
			m.schedule(now)
			m.schedule(now)
		case 1: // next tick
			m.schedule(now + 1<<wheelTickShift)
		case 2: // one wheel level up
			m.schedule(now + Time(1<<(wheelTickShift+wheelLevelBits)+m.rng.Intn(1<<wheelTickShift)))
		}
		m.schedule(now + Time(m.rng.Intn(1<<(wheelTickShift+2))))
	}

	switch {
	case m.stopBurst && len(m.ref) > 0 && m.ref[0].at == now && m.rng.Intn(4) == 0:
		m.e.Stop()
		m.stopBurst, m.stopped = false, true
		m.burstStops++
	case m.stopLast && len(m.ref) > 0 && m.ref[0].at > m.deadline:
		m.e.Stop()
		m.stopLast, m.stopped = false, true
		m.lastStops++
	}
}

// done checks the engine agrees the run is over.
func (m *dispatchModel) done() {
	m.t.Helper()
	if len(m.ref) != 0 || m.e.Pending() != 0 {
		m.t.Fatalf("reference holds %d events, engine %d", len(m.ref), m.e.Pending())
	}
}

// TestRunLoopMatchesReference drives Run, RunUntil and RunWindow through
// the dispatch loop against the reference heap, with handlers scheduling
// into the queue as they run. RunUntil rounds stop mid-burst and on the
// last event before the deadline (the clock must stay there, not jump to
// the deadline); RunWindow rounds must stop at their end with the
// next-event cache primed.
func TestRunLoopMatchesReference(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		m := newDispatchModel(t, 1)
		m.deadline = MaxTime
		m.e.Run()
		m.done()
		if m.lateDispatches == 0 {
			t.Fatal("no event was dispatched with the late heap occupied")
		}
	})

	t.Run("RunUntil", func(t *testing.T) {
		m := newDispatchModel(t, 2)
		for round := 0; len(m.ref) > 0; round++ {
			m.deadline = m.ref[0].at + Time(m.rng.Intn(1<<(wheelTickShift+3)))
			m.stopped = false
			m.stopBurst, m.stopLast = round%3 == 1, round%3 == 2
			m.e.RunUntil(m.deadline)
			switch {
			case m.stopped:
				if m.e.Now() != m.lastAt || m.e.Rank() != m.lastRank {
					t.Fatalf("after Stop: at (%d, %d), want the stopping event's (%d, %d)",
						m.e.Now(), m.e.Rank(), m.lastAt, m.lastRank)
				}
			case len(m.ref) > 0:
				if m.e.Now() != m.deadline || m.e.Rank() != ^uint64(0) {
					t.Fatalf("deadline cut: at (%d, %d), want (%d, max)", m.e.Now(), m.e.Rank(), m.deadline)
				}
				if m.ref[0].at <= m.deadline {
					t.Fatalf("event at %d left pending at or before deadline %d", m.ref[0].at, m.deadline)
				}
			}
		}
		m.done()
		if m.burstStops == 0 || m.lastStops == 0 {
			t.Fatalf("stops mid-burst %d, on the last event before the deadline %d: want both", m.burstStops, m.lastStops)
		}
	})

	t.Run("RunWindow", func(t *testing.T) {
		m := newDispatchModel(t, 3)
		m.window = true
		for len(m.ref) > 0 {
			m.end = m.ref[0].at + Time(m.rng.Intn(1<<(wheelTickShift+wheelLevelBits)))
			m.e.RunWindow(m.end)
			if len(m.ref) == 0 {
				break
			}
			if m.ref[0].at < m.end {
				t.Fatalf("event at %d left pending inside a window ending at %d", m.ref[0].at, m.end)
			}
			if at, ok := m.e.NextEventTime(); !ok || at != m.ref[0].at {
				t.Fatalf("NextEventTime = %d, %v after the window, want %d", at, ok, m.ref[0].at)
			}
		}
		m.done()
	})
}
