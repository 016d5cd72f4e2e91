package sim

import (
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// TestCompletionDoneAtWant: Done turns true at exactly the wanted count,
// wherever the outcomes land.
func TestCompletionDoneAtWant(t *testing.T) {
	var c Completion
	c.Init(3, 4, 10)
	e := NewEngine()
	for i, shard := range []int{0, 2, 1, 2} {
		if c.Done() {
			t.Fatalf("Done after %d of 4 outcomes", i)
		}
		c.Add(shard, e, Time(i))
	}
	if !c.Done() {
		t.Fatal("not Done after 4 of 4 outcomes")
	}
	var none Completion
	none.Init(2, 0, 10)
	if !none.Done() {
		t.Fatal("a run wanting no outcomes is not Done")
	}
	if s := unsafe.Sizeof(completionShard{}); s != 64 {
		t.Errorf("a shard slot is %d bytes, want one 64-byte cache line", s)
	}
}

// TestCompletionHorizon: Horizon is the latest Add on any shard, in any
// order, plus the slack; Last is zero before the first.
func TestCompletionHorizon(t *testing.T) {
	var c Completion
	c.Init(3, 10, 10)
	e := NewEngine()
	if c.Last() != 0 || c.Horizon() != 10 {
		t.Fatalf("before any outcome: Last %d, Horizon %d, want 0 and 10", c.Last(), c.Horizon())
	}
	for _, a := range []struct {
		shard int
		at    Time
	}{{0, 50}, {2, 30}, {1, 70}, {0, 60}} {
		c.Add(a.shard, e, a.at)
	}
	if c.Last() != 70 || c.Horizon() != 80 {
		t.Fatalf("Last %d, Horizon %d, want 70 and 80", c.Last(), c.Horizon())
	}
}

// TestCompletionWidenArms: Widen arms the granted shard at want minus the
// outcomes counted elsewhere and disarms every other shard.
func TestCompletionWidenArms(t *testing.T) {
	var c Completion
	c.Init(3, 10, 0)
	e := NewEngine()
	for shard, n := range []int{2, 3, 1} {
		for range n {
			c.Add(shard, e, 1)
		}
	}
	if !c.Widen(0) || c.shards[0].target != 10-4 {
		t.Fatalf("Widen(0) armed target %d, want %d", c.shards[0].target, 10-4)
	}
	c.Widen(1)
	for shard, want := range []int{0, 10 - 3, 0} {
		if got := c.shards[shard].target; got != want {
			t.Errorf("after Widen(1): shard %d target %d, want %d", shard, got, want)
		}
	}
}

// TestCompletionArmedEngineStops: an armed engine stops right after the
// outcome that reaches its target and not before; an unarmed one runs on.
func TestCompletionArmedEngineStops(t *testing.T) {
	run := func(arm bool) uint64 {
		var c Completion
		c.Init(2, 5, 0)
		e, other := NewEngine(), NewEngine()
		c.Add(1, other, 0)
		c.Add(1, other, 0)
		outcome := handlerFunc(func(uint8, uint64) { c.Add(0, e, e.Now()) })
		for at := Time(1); at <= 4; at++ {
			e.ScheduleEvent(at, outcome, 0, 0)
		}
		if arm {
			c.Widen(0) // target 5 − 2 = 3
		}
		e.RunWindow(100)
		return e.Executed()
	}
	if got := run(true); got != 3 {
		t.Errorf("armed engine executed %d events, want to stop after the 3rd", got)
	}
	if got := run(false); got != 4 {
		t.Errorf("unarmed engine executed %d events, want all 4", got)
	}
}

// TestCompletionRunWindows drives two engines with a Completion as
// RunWindows' Done, Horizon and Widen hooks, in the style of
// TestRunWindowsWidenSelfStop: the adaptive run must execute exactly the
// fixed-window run's events and land every clock on the same horizon.
//
//   - Fresh grant: shard 0 is widened with an exact snapshot, so its armed
//     stop fires at the outcome that completes the run; the trailing event
//     inside the widened window must not leak in.
//   - Stale grant: shard 1 counts an outcome inside the very round that
//     widens shard 0, so shard 0's target is one too high and never fires.
//     Shard 0 runs on to its window end, which the horizon — the later
//     last outcome plus the slack — still covers.
func TestCompletionRunWindows(t *testing.T) {
	const lookahead = 50
	type ev struct {
		shard   int
		at      Time
		outcome bool
	}
	run := func(evs []ev, want int, fixed bool) ([]int64, [2]Time, WindowStats) {
		engs := []*Engine{NewEngine(), NewEngine()}
		var c Completion
		c.Init(2, want, lookahead)
		var mu sync.Mutex
		var got []int64
		for _, x := range evs {
			e := engs[x.shard]
			e.ScheduleEvent(x.at, handlerFunc(func(uint8, uint64) {
				mu.Lock()
				got = append(got, int64(x.at))
				mu.Unlock()
				if x.outcome {
					c.Add(x.shard, e, e.Now())
				}
			}), 0, 0)
		}
		var st WindowStats
		if !RunWindows(WindowConfig{
			Engines:      engs,
			Lookahead:    lookahead,
			Deadline:     1 << 20,
			Done:         c.Done,
			Horizon:      c.Horizon,
			Widen:        c.Widen,
			FixedWindows: fixed,
			Stats:        &st,
		}) {
			t.Fatal("run did not end through Done")
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return got, [2]Time{engs[0].Now(), engs[1].Now()}, st
	}

	for _, tc := range []struct {
		name    string
		evs     []ev
		want    int
		ran     []int64
		horizon Time
	}{
		{
			name: "fresh",
			evs: []ev{
				{0, 5, true}, {1, 200, true}, {0, 300, true},
				{0, 1000, false}, {1, 2000, false}, // past the horizon
			},
			want: 3, ran: []int64{5, 200, 300}, horizon: 300 + lookahead,
		},
		{
			name: "stale",
			evs: []ev{
				{0, 100, true}, {1, 120, true}, {0, 160, true},
				{0, 175, false}, // inside the horizon: runs in both
				{0, 300, false}, {1, 400, false},
			},
			want: 3, ran: []int64{100, 120, 160, 175}, horizon: 160 + lookahead,
		},
	} {
		fixedRan, fixedNow, _ := run(tc.evs, tc.want, true)
		ran, now, st := run(tc.evs, tc.want, false)
		if st.WideWindows == 0 {
			t.Errorf("%s: no window was widened; the case tests nothing", tc.name)
		}
		for _, r := range [][]int64{fixedRan, ran} {
			if len(r) != len(tc.ran) {
				t.Fatalf("%s: executed %v (fixed %v), want %v", tc.name, ran, fixedRan, tc.ran)
			}
			for i := range r {
				if r[i] != tc.ran[i] {
					t.Fatalf("%s: executed %v (fixed %v), want %v", tc.name, ran, fixedRan, tc.ran)
				}
			}
		}
		if now != fixedNow || now != [2]Time{tc.horizon, tc.horizon} {
			t.Errorf("%s: clocks %d (fixed %d), want both at the horizon %d", tc.name, now, fixedNow, tc.horizon)
		}
	}
}
