package sim

import "testing"

// countingHandler counts typed events by kind.
type countingHandler struct {
	fired [4]int
}

func (h *countingHandler) HandleEvent(kind uint8, _ uint64) { h.fired[kind]++ }

// TestScheduleEventZeroAllocs is the allocation-regression guard for the
// tentpole: steady-state scheduling through the typed-handler path must
// not allocate. The engine's event heap is warmed first so the backing
// array has capacity; after that, ScheduleEvent + dispatch is free.
func TestScheduleEventZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{}

	// Warm the heap's backing array.
	for i := 0; i < 256; i++ {
		e.ScheduleEvent(e.Now()+Time(i), h, 0, uint64(i))
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleEvent(e.Now()+1, h, 1, 42)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent steady state allocates %.1f/op, want 0", allocs)
	}
	if h.fired[1] == 0 {
		t.Fatal("handler never fired")
	}
}

// TestTimerRearmZeroAllocs: arming, re-arming (both pushing the deadline
// later and firing through) a handler timer must not allocate — transports
// re-arm their RTO on nearly every packet.
func TestTimerRearmZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{}
	tm := NewHandlerTimer(e, nil, h, 2)

	// Warm: one full arm/fire cycle.
	tm.Arm(1)
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		tm.Arm(3) // arm
		tm.Arm(7) // push the deadline later (lazy re-arm path)
		e.Run()   // pending event lapses, reschedules, fires
	})
	if allocs != 0 {
		t.Fatalf("Timer re-arm steady state allocates %.1f/op, want 0", allocs)
	}
	if h.fired[2] == 0 {
		t.Fatal("timer never fired")
	}
}

// TestClosureScheduleStillWorks pins the closure wrapper: it rides the
// typed path (interleaving FIFO with typed events at equal times) and adds
// no allocation of its own — converting a func value to Handler is free,
// so scheduling an existing closure allocates nothing.
func TestClosureScheduleStillWorks(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{}
	var order []int
	e.Schedule(5, func() { order = append(order, 1) })
	e.ScheduleEvent(5, h, 0, 0)
	e.Schedule(5, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 || h.fired[0] != 1 {
		t.Fatalf("mixed dispatch broke ordering: order=%v fired=%v", order, h.fired)
	}
	fn := func() { order = order[:0] }
	if allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(e.Now()+1, fn)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("Schedule of an existing closure allocates %.1f/op, want 0", allocs)
	}
}
