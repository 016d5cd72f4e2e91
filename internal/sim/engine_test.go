package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", int64(e.Now()))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, got[i])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(7, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 63 {
		t.Errorf("Now = %d, want 63", int64(e.Now()))
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(50, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := make(map[int]bool)
	for _, at := range []int{10, 20, 30, 40} {
		at := at
		e.Schedule(Time(at), func() { fired[at] = true })
	}
	e.RunUntil(25)
	if !fired[10] || !fired[20] || fired[30] {
		t.Fatalf("RunUntil fired wrong events: %v", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now = %d, want 25", int64(e.Now()))
	}
	e.RunUntil(100)
	if !fired[30] || !fired[40] {
		t.Errorf("remaining events did not fire: %v", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop should halt)", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestTimerFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(100)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	e.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer should be unarmed after firing")
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Arm(100)
	tm.Cancel()
	e.Run()
	if fired != 0 {
		t.Errorf("cancelled timer fired %d times", fired)
	}
}

func TestTimerRearmReplacesSchedule(t *testing.T) {
	e := NewEngine()
	var fireTimes []Time
	tm := NewTimer(e, func() { fireTimes = append(fireTimes, e.Now()) })
	tm.Arm(100)
	tm.Arm(50) // replaces the first schedule
	e.Run()
	if len(fireTimes) != 1 || fireTimes[0] != 50 {
		t.Errorf("fireTimes = %v, want [50]", fireTimes)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		count++
		if count < 5 {
			tm.Arm(10)
		}
	})
	tm.Arm(10)
	e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

// fireLog is a Handler that records when it fires.
type fireLog struct {
	eng   *Engine
	fires []Time
}

func (f *fireLog) HandleEvent(uint8, uint64) { f.fires = append(f.fires, f.eng.Now()) }

// TestTimerReinitIgnoresStaleEvents: a timer re-Init-ed while events of its
// previous life are still queued — one superseded by a re-arm to an
// earlier deadline, one live but cancelled — must behave in its new life
// exactly like a fresh timer next to the old one: same fire times, same
// number of executed events. This is what lets a finished sender, whose
// timer is embedded by value, be recycled for the next flow. With
// generations counted per timer, Init restarts the count and a stale
// event matches the new life's generation.
func TestTimerReinitIgnoresStaleEvents(t *testing.T) {
	const us = Time(Microsecond)
	for _, at := range []Time{30 * us, 75 * us, 100 * us, 200 * us} {
		// run arms a timer to 100, re-arms it to 50 (superseding the first
		// event), cancels it, and then arms a second life to at: on the
		// same Timer after Init when reinit is set, on a fresh one
		// otherwise.
		run := func(reinit bool) ([]Time, uint64) {
			e := NewEngine()
			old := &fireLog{eng: e}
			var tm Timer
			tm.Init(e, nil, old, 0)
			tm.ArmAt(100 * us)
			tm.ArmAt(50 * us)
			tm.Cancel()
			life := &fireLog{eng: e}
			next := &tm
			if !reinit {
				next = new(Timer)
			}
			next.Init(e, nil, life, 0)
			next.ArmAt(at)
			e.Run()
			if len(old.fires) != 0 {
				t.Fatalf("cancelled first life fired at %v", old.fires)
			}
			return life.fires, e.Executed()
		}
		wantFires, wantEvents := run(false)
		gotFires, gotEvents := run(true)
		if len(wantFires) != 1 || wantFires[0] != at {
			t.Fatalf("arm at %v: fresh timer fired at %v", at, wantFires)
		}
		if !slices.Equal(gotFires, wantFires) || gotEvents != wantEvents {
			t.Errorf("arm at %v: re-Init timer fired at %v over %d events, a fresh one at %v over %d",
				at, gotFires, gotEvents, wantFires, wantEvents)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	tt := Time(0).Add(3 * Microsecond)
	if tt != Time(3_000_000) {
		t.Errorf("3us = %d ps, want 3e6", int64(tt))
	}
	if d := tt.Sub(Time(1_000_000)); d != 2*Microsecond {
		t.Errorf("sub = %v", d)
	}
	if s := Time(Second).Seconds(); s != 1.0 {
		t.Errorf("Seconds = %v", s)
	}
	if ms := Duration(Millisecond).Millis(); ms != 1.0 {
		t.Errorf("Millis = %v", ms)
	}
	if us := Duration(Microsecond).Micros(); us != 1.0 {
		t.Errorf("Micros = %v", us)
	}
}

func TestEngineManyEventsProperty(t *testing.T) {
	// Property: events always execute in non-decreasing time order, and
	// all scheduled events execute.
	f := func(seed uint64, n uint8) bool {
		e := NewEngine()
		r := NewRNG(seed)
		total := int(n)%200 + 1
		var last Time = -1
		executed := 0
		for i := 0; i < total; i++ {
			at := Time(r.Intn(1000))
			e.Schedule(at, func() {
				if e.Now() < last {
					t.Errorf("time went backwards: %d < %d", e.Now(), last)
				}
				last = e.Now()
				executed++
			})
		}
		e.Run()
		return executed == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkEngineScheduleRun measures raw event throughput: the number
// the fabric's packets-per-second ceiling derives from.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if n != b.N && b.N > 0 {
		b.Fatalf("executed %d, want %d", n, b.N)
	}
}

// BenchmarkEngineHeapChurn stresses the heap with a standing population
// of pending events, the simulator's steady-state shape.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine()
	r := NewRNG(1)
	const standing = 4096
	executed := 0
	var spawn func()
	spawn = func() {
		executed++
		if executed+standing <= b.N || executed < b.N {
			e.After(Duration(1+r.Intn(10000)), spawn)
		}
	}
	for i := 0; i < standing; i++ {
		e.After(Duration(1+r.Intn(10000)), spawn)
	}
	e.RunUntil(1 << 60)
	_ = executed
}

// BenchmarkTimerRearm measures the lazy timer's per-arm cost — the path
// transports hit on every packet.
func BenchmarkTimerRearm(b *testing.B) {
	e := NewEngine()
	tm := NewTimer(e, func() {})
	for i := 0; i < b.N; i++ {
		tm.Arm(Duration(1000000 + i))
	}
	tm.Cancel()
	e.Run()
}
