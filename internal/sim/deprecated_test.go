package sim_test

import (
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/sim"
)

// outcome counts one Completion outcome on its shard when it fires.
type outcome struct {
	c     *sim.Completion
	e     *sim.Engine
	shard int
}

func (o outcome) HandleEvent(uint8, uint64) { o.c.Add(o.shard, o.e.Now()) }

// TestDeprecatedWindowKnobsAreInert: WindowConfig.FixedWindows and
// WindowConfig.Widen change nothing, WindowStats.WideWindows stays 0 and
// kv.Service.Widen declines, so a caller still setting them runs fixed
// windows. The schedule is sparse and ends through a Completion, the
// shape in which the removed extension widened windows and consulted the
// hook.
func TestDeprecatedWindowKnobsAreInert(t *testing.T) {
	const lookahead = 100
	run := func(fixed bool, widen func(int) bool) sim.WindowStats {
		a, b := sim.NewEngine(), sim.NewEngine()
		var c sim.Completion
		c.Init(2, 12, lookahead)
		for i := range 11 {
			a.ScheduleEvent(sim.Time(i*10*lookahead), outcome{&c, a, 0}, 0, 0)
		}
		b.ScheduleEvent(100*lookahead+5, outcome{&c, b, 1}, 0, 0)
		b.ScheduleEvent(1<<20, outcome{&c, b, 1}, 0, 0) // past the horizon
		var st sim.WindowStats
		if !sim.RunWindows(sim.WindowConfig{
			Engines:      []*sim.Engine{a, b},
			Lookahead:    lookahead,
			Deadline:     1 << 30,
			Done:         c.Done,
			Horizon:      c.Horizon,
			Widen:        widen,
			FixedWindows: fixed,
			Stats:        &st,
		}) {
			t.Fatal("run did not end through Done")
		}
		for i := range st.Shards {
			st.Shards[i].BarrierWaitNs = 0 // wall-clock
		}
		return st
	}

	plain := run(false, nil)
	if plain.Barriers < 11 {
		t.Fatalf("%d barriers, want at least one per gap (11)", plain.Barriers)
	}
	if ev := plain.Shards[0].Events + plain.Shards[1].Events; ev != 12 {
		t.Fatalf("executed %d events, want 12", ev)
	}
	calls := 0
	for name, st := range map[string]sim.WindowStats{
		"FixedWindows": run(true, nil),
		"Widen":        run(false, func(int) bool { calls++; return true }),
	} {
		if !reflect.DeepEqual(st, plain) {
			t.Errorf("%s: stats %+v, plain run %+v", name, st, plain)
		}
	}
	if calls != 0 || plain.WideWindows != 0 {
		t.Errorf("Widen hook called %d times, %d wide windows: want 0 and 0", calls, plain.WideWindows)
	}
	if (&kv.Service{}).Widen(0) {
		t.Error("kv.Service.Widen granted an extension")
	}
}
