package sim

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// recHandler records (label, firing time) pairs in execution order.
type recHandler struct {
	got *[]uint64
}

func (h recHandler) HandleEvent(_ uint8, arg uint64) { *h.got = append(*h.got, arg) }

// TestRunWindowsTwoShards drives a ping-pong pair of "nodes" — each with
// its own clock, exchanging events through barrier-drained inboxes (the
// shape of fabric's boundary channels) — once on a single engine and
// once split across two, asserting the merged execution order is
// identical.
func TestRunWindowsTwoShards(t *testing.T) {
	const lookahead = 100

	run := func(engCount int) [2][]uint64 {
		engs := make([]*Engine, engCount)
		for i := range engs {
			engs[i] = NewEngine()
		}
		// Each node records its own observed history: in sharded mode the
		// two nodes execute on different goroutines, so shared recording
		// would itself be a race — per-node slices mirror how real shard
		// state is owned.
		var got [2][]uint64
		h0, h1 := recHandler{&got[0]}, recHandler{&got[1]}

		// Node 0 lives on engine 0, node 1 on the last engine (the same
		// one when engCount == 1).
		clk0, clk1 := NewClock(1), NewClock(2)
		e0 := engs[0]
		e1 := engs[engCount-1]

		// Cross-node sends: produced during windows, drained at barriers.
		type xev struct {
			at   Time
			rank uint64
			arg  uint64
		}
		var inbox0, inbox1 []xev // inboxN feeds node N

		// Each node's handler records the event and volleys back to the
		// peer, one lookahead out, under its own clock.
		var ping, pong Handler
		ping = handlerFunc(func(_ uint8, arg uint64) { // node 0
			got[0] = append(got[0], arg)
			if arg < 40 {
				inbox1 = append(inbox1, xev{e0.Now() + lookahead, clk0.Next(), arg + 1})
			}
		})
		pong = handlerFunc(func(_ uint8, arg uint64) { // node 1
			got[1] = append(got[1], arg)
			if arg < 40 {
				inbox0 = append(inbox0, xev{e1.Now() + lookahead, clk1.Next(), arg + 1})
			}
		})

		// Seed: the first volley plus local noise on both nodes.
		e0.ScheduleEventFrom(&clk0, 5, ping, 0, 0)
		for i := Time(1); i <= 10; i++ {
			e0.ScheduleEventFrom(&clk0, i*37, h0, 0, 1000+uint64(i))
			e1.ScheduleEventFrom(&clk1, i*53, h1, 0, 2000+uint64(i))
		}

		drainNode0 := func() {
			for _, x := range inbox0 {
				e0.ScheduleRanked(x.at, x.rank, ping, 0, x.arg)
			}
			inbox0 = inbox0[:0]
		}
		drainNode1 := func() {
			for _, x := range inbox1 {
				e1.ScheduleRanked(x.at, x.rank, pong, 0, x.arg)
			}
			inbox1 = inbox1[:0]
		}
		drain := func() {
			drainNode0()
			drainNode1()
		}

		RunWindows(WindowConfig{
			Engines:   engs,
			Lookahead: lookahead,
			Deadline:  1 << 20,
			Drain:     drain,
		})
		return got
	}

	serial := run(1)
	sharded := run(2)
	if len(serial[0])+len(serial[1]) < 50 {
		t.Fatalf("only %d events executed; ping-pong never ran", len(serial[0])+len(serial[1]))
	}
	for n := range serial {
		if len(serial[n]) != len(sharded[n]) {
			t.Fatalf("node %d event counts diverged: serial %d, sharded %d", n, len(serial[n]), len(sharded[n]))
		}
		for i := range serial[n] {
			if serial[n][i] != sharded[n][i] {
				t.Fatalf("node %d history diverged at %d: serial %d, sharded %d", n, i, serial[n][i], sharded[n][i])
			}
		}
	}
}

type handlerFunc func(kind uint8, arg uint64)

func (f handlerFunc) HandleEvent(kind uint8, arg uint64) { f(kind, arg) }

// TestRunWindowsDeadline: a windowed run cut short by the deadline
// advances every engine's clock to it, like RunUntil.
func TestRunWindowsDeadline(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var got []uint64
	h := recHandler{&got}
	a.ScheduleEvent(10, h, 0, 1)
	b.ScheduleEvent(500, h, 0, 2)
	stopped := RunWindows(WindowConfig{
		Engines:   []*Engine{a, b},
		Lookahead: 50,
		Deadline:  100,
	})
	if stopped {
		t.Fatal("run reported a Done stop without a Done hook")
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("executed %v, want just event 1", got)
	}
	if a.Now() != 100 || b.Now() != 100 {
		t.Fatalf("clocks at %d/%d, want deadline 100", a.Now(), b.Now())
	}
}

// TestRunWindowsDoneAtBarrier: Done is evaluated at barriers only, so
// every event of the window that satisfied it still executes — the
// property that makes the executed-event set shard-count-invariant — and
// the run then ends at the horizon, with the clock on it.
func TestRunWindowsDoneAtBarrier(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	done := false
	fire := handlerFunc(func(_ uint8, arg uint64) { got = append(got, arg); done = true })
	e.ScheduleEvent(10, fire, 0, 1)
	e.ScheduleEvent(11, h, 0, 2)  // same window as 1: must still run
	e.ScheduleEvent(500, h, 0, 3) // past the horizon: must not
	stopped := RunWindows(WindowConfig{
		Engines:   []*Engine{e},
		Lookahead: 50,
		Deadline:  1 << 20,
		Done:      func() bool { return done },
		Horizon:   func() Time { return 10 + 50 },
	})
	if !stopped {
		t.Fatal("Done stop not reported")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("executed %v, want [1 2]", got)
	}
	if e.Now() != 60 {
		t.Fatalf("clock at %d, want horizon 60", e.Now())
	}
}

// TestRunWindowsDoneRequiresHorizon: a Done hook without a Horizon has no
// lookahead-independent place to stop, so RunWindows refuses it by name.
func TestRunWindowsDoneRequiresHorizon(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "WindowConfig.Horizon") {
			t.Fatalf("panic %q, want one naming WindowConfig.Horizon", r)
		}
	}()
	RunWindows(WindowConfig{
		Engines:   []*Engine{NewEngine()},
		Lookahead: 50,
		Deadline:  1 << 20,
		Done:      func() bool { return true },
	})
}

// TestRunWindowsMaxDeadline: a Deadline of MaxTime must not wrap the
// window arithmetic. Before the saturating fix, `w = Deadline + 1`
// overflowed to the most negative Time once `t + lookahead` passed the
// deadline, turning every subsequent window empty and looping forever;
// events at (and near) MaxTime must execute and the run must terminate.
func TestRunWindowsMaxDeadline(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var got []uint64
	h := recHandler{&got}
	a.ScheduleEvent(10, h, 0, 1)
	a.ScheduleEvent(MaxTime-1, h, 0, 2)
	b.ScheduleEvent(MaxTime, h, 0, 3)
	stopped := RunWindows(WindowConfig{
		Engines:   []*Engine{a, b},
		Lookahead: 50,
		Deadline:  MaxTime,
	})
	if stopped {
		t.Fatal("run reported a Done stop without a Done hook")
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("executed %v, want [1 2 3]", got)
	}
	if a.Now() != MaxTime || b.Now() != MaxTime {
		t.Fatalf("clocks at %d/%d, want MaxTime", a.Now(), b.Now())
	}
}

// TestRunWindowsHorizon: with a Horizon hook, a Done stop clamps the
// deadline instead of returning immediately — the run continues through
// the window protocol to min(Deadline, Horizon()), executes everything
// due by then (regardless of which window Done happened to surface in),
// and lands every clock exactly on the final deadline. This is what
// makes the executed-event set invariant across lookahead widths, for
// any width up to the horizon's slack past the done condition (here the
// done event fires at 40 and the horizon is 150, so widths <= 110
// qualify; callers guarantee this by deriving the horizon as "done time
// plus the maximum window width in use", e.g. fabric.WindowSlack).
func TestRunWindowsHorizon(t *testing.T) {
	for _, lookahead := range []Duration{3, 50, 110} {
		a, b := NewEngine(), NewEngine()
		// Wide windows run both engines' events concurrently, so the
		// record is mutex-guarded and compared as a set: the invariant
		// is about WHICH events execute, not cross-shard append order.
		var mu sync.Mutex
		var got []uint64
		done := false
		record := handlerFunc(func(_ uint8, arg uint64) {
			mu.Lock()
			got = append(got, arg)
			mu.Unlock()
		})
		fire := handlerFunc(func(_ uint8, arg uint64) {
			mu.Lock()
			got = append(got, arg)
			done = true
			mu.Unlock()
		})
		a.ScheduleEvent(40, fire, 0, 1)
		b.ScheduleEvent(100, record, 0, 2) // inside the horizon: must run
		b.ScheduleEvent(200, record, 0, 3) // outside: must not
		stopped := RunWindows(WindowConfig{
			Engines:   []*Engine{a, b},
			Lookahead: lookahead,
			Deadline:  1 << 20,
			Done:      func() bool { return done },
			Horizon:   func() Time { return 150 },
		})
		if !stopped {
			t.Fatalf("lookahead %d: Done stop not reported", lookahead)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("lookahead %d: executed %v, want {1 2}", lookahead, got)
		}
		if a.Now() != 150 || b.Now() != 150 {
			t.Fatalf("lookahead %d: clocks at %d/%d, want horizon 150", lookahead, a.Now(), b.Now())
		}
	}
}

// TestRunWindowsShardPanic: a panic inside a shard's window must surface
// on the RunWindows caller as a ShardPanic instead of deadlocking the
// barrier (the panicking shard's ack never arrived before the fix). Both
// the coordinator-inline shard 0 and a worker-goroutine shard are
// exercised.
func TestRunWindowsShardPanic(t *testing.T) {
	for _, shard := range []int{0, 1} {
		a, b := NewEngine(), NewEngine()
		engs := []*Engine{a, b}
		var got []uint64
		h := recHandler{&got}
		boom := handlerFunc(func(uint8, uint64) { panic("boom") })
		engs[shard].ScheduleEvent(10, boom, 0, 0)
		engs[1-shard].ScheduleEvent(10, h, 0, 1)
		func() {
			defer func() {
				r := recover()
				sp, ok := r.(ShardPanic)
				if !ok {
					t.Fatalf("shard %d: recovered %v (%T), want ShardPanic", shard, r, r)
				}
				if sp.Shard != shard || sp.Value != "boom" || sp.Stack == "" {
					t.Fatalf("shard %d: ShardPanic = {Shard:%d Value:%v stack:%d bytes}",
						shard, sp.Shard, sp.Value, len(sp.Stack))
				}
			}()
			RunWindows(WindowConfig{
				Engines:   engs,
				Lookahead: 50,
				Deadline:  1 << 20,
			})
			t.Fatalf("shard %d: RunWindows returned instead of panicking", shard)
		}()
	}
}

// TestNextEventTimeCached: NextEventTime must stay correct through the
// cache's lifecycle — primed by RunWindow, lowered by pushes, invalidated
// by pops — since the window coordinator trusts it to size and dispatch
// windows.
func TestNextEventTimeCached(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := recHandler{&got}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.ScheduleEvent(100, h, 0, 1)
	if at, ok := e.NextEventTime(); !ok || at != 100 {
		t.Fatalf("next = %d,%v, want 100", at, ok)
	}
	e.RunWindow(50) // executes nothing; primes the cache at 100
	if at, ok := e.NextEventTime(); !ok || at != 100 {
		t.Fatalf("next after empty window = %d,%v, want 100", at, ok)
	}
	e.ScheduleRanked(60, 1, h, 0, 2) // must lower the cached value
	if at, ok := e.NextEventTime(); !ok || at != 60 {
		t.Fatalf("next after lower push = %d,%v, want 60", at, ok)
	}
	e.RunWindow(70) // pops event 2; cache re-primed at 100
	if at, ok := e.NextEventTime(); !ok || at != 100 {
		t.Fatalf("next after window = %d,%v, want 100", at, ok)
	}
	e.RunWindow(200)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained engine reported a next event")
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("executed %v, want [2 1]", got)
	}
}

// FuzzShardMerge is the differential fuzz target for cross-shard event
// merging: arbitrary byte streams decode into per-producer event streams
// plus a drain/pop schedule, driven through ScheduleRanked batches under
// the conservative-window constraint, and the observed pop order must
// equal a single sorted reference queue — the serial order. It is the
// shard-merge counterpart of FuzzEventOrder: that target pins one
// queue's internal order, this one pins that batched cross-engine
// insertion cannot perturb it.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(20))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0}, uint8(1), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(8), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, nprod uint8, look uint8) {
		producers := int(nprod%8) + 1
		lookahead := Time(look) + 1

		// Decode per-producer streams: time deltas from the bytes, ranks
		// from one clock per producer (as one boundary channel's entries
		// would draw them). Per producer, times are nondecreasing and
		// ranks strictly increasing — the channel push invariant.
		type ev struct {
			at   Time
			rank uint64
		}
		streams := make([][]ev, producers)
		clks := make([]Clock, producers)
		for i := range clks {
			clks[i] = NewClock(uint64(i) + 1)
		}
		now := make([]Time, producers)
		for i := 0; i < len(data); i++ {
			p := int(data[i]) % producers
			var delta Time
			if i+1 < len(data) {
				delta = Time(data[i+1] % 64)
				i++
			}
			now[p] += delta
			streams[p] = append(streams[p], ev{at: now[p], rank: clks[p].Next()})
		}

		// Reference: stable sort of everything by (at, rank).
		var ref []ev
		for _, s := range streams {
			ref = append(ref, s...)
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].rank < ref[j].rank
		})
		if len(ref) == 0 {
			return
		}

		// Drive the consumer engine through windows: at each barrier,
		// drain every producer's events due before the window end, then
		// pop the window. This mirrors RunWindows + linkChan.drain under
		// the lookahead guarantee (an event due d exists in its channel
		// by the barrier before the window containing d).
		e := NewEngine()
		var got []uint64
		h := recHandler{&got}
		heads := make([]int, producers)
		for {
			// T = min over engine and stream heads.
			var (
				tmin Time
				have bool
			)
			if at, ok := e.NextEventTime(); ok {
				tmin, have = at, true
			}
			for p := range streams {
				if heads[p] < len(streams[p]) {
					if at := streams[p][heads[p]].at; !have || at < tmin {
						tmin, have = at, true
					}
				}
			}
			if !have {
				break
			}
			w := tmin + lookahead
			var batch []RankedEvent
			for p := range streams {
				batch = batch[:0]
				for heads[p] < len(streams[p]) && streams[p][heads[p]].at < w {
					x := streams[p][heads[p]]
					batch = append(batch, RankedEvent{At: x.at, Rank: x.rank, Arg: x.rank})
					heads[p]++
				}
				e.ScheduleRankedBatch(h, batch)
			}
			e.RunWindow(w)
		}
		if len(got) != len(ref) {
			t.Fatalf("popped %d events, reference has %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i].rank {
				t.Fatalf("merge order diverged at %d: got rank %#x, want %#x (at=%d)",
					i, got[i], ref[i].rank, ref[i].at)
			}
		}
	})
}
