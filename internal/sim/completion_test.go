package sim

import (
	"slices"
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
	for i, shard := range []int{0, 2, 1, 2} {
		if c.Done() {
			t.Fatalf("Done after %d of 4 outcomes", i)
		}
		c.Add(shard, Time(i))
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
	if c.Last() != 0 || c.Horizon() != 10 {
		t.Fatalf("before any outcome: Last %d, Horizon %d, want 0 and 10", c.Last(), c.Horizon())
	}
	for _, a := range []struct {
		shard int
		at    Time
	}{{0, 50}, {2, 30}, {1, 70}, {0, 60}} {
		c.Add(a.shard, a.at)
	}
	if c.Last() != 70 || c.Horizon() != 80 {
		t.Fatalf("Last %d, Horizon %d, want 70 and 80", c.Last(), c.Horizon())
	}
}

// TestCompletionRunWindows drives two engines with a Completion as
// RunWindows' Done and Horizon hooks: the run ends through Done, executes
// exactly the events up to the horizon — the last outcome plus the slack —
// and lands both clocks on it.
//
//   - far: the events after the last outcome lie past the horizon and
//     never run.
//   - near: the last outcome's shard holds an event inside the horizon,
//     which runs; the later ones do not.
func TestCompletionRunWindows(t *testing.T) {
	const lookahead = 50
	type ev struct {
		shard   int
		at      Time
		outcome bool
	}
	run := func(evs []ev, want int) ([]int64, [2]Time) {
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
					c.Add(x.shard, e.Now())
				}
			}), 0, 0)
		}
		if !RunWindows(WindowConfig{
			Engines:   engs,
			Lookahead: lookahead,
			Deadline:  1 << 20,
			Done:      c.Done,
			Horizon:   c.Horizon,
		}) {
			t.Fatal("run did not end through Done")
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return got, [2]Time{engs[0].Now(), engs[1].Now()}
	}

	for _, tc := range []struct {
		name    string
		evs     []ev
		want    int
		ran     []int64
		horizon Time
	}{
		{
			name: "far",
			evs: []ev{
				{0, 5, true}, {1, 200, true}, {0, 300, true},
				{0, 1000, false}, {1, 2000, false}, // past the horizon
			},
			want: 3, ran: []int64{5, 200, 300}, horizon: 300 + lookahead,
		},
		{
			name: "near",
			evs: []ev{
				{0, 100, true}, {1, 120, true}, {0, 160, true},
				{0, 175, false}, // inside the horizon
				{0, 300, false}, {1, 400, false},
			},
			want: 3, ran: []int64{100, 120, 160, 175}, horizon: 160 + lookahead,
		},
	} {
		ran, now := run(tc.evs, tc.want)
		if !slices.Equal(ran, tc.ran) {
			t.Fatalf("%s: executed %v, want %v", tc.name, ran, tc.ran)
		}
		if now != [2]Time{tc.horizon, tc.horizon} {
			t.Errorf("%s: clocks %d, want both at the horizon %d", tc.name, now, tc.horizon)
		}
	}
}
