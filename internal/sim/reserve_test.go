package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestClockReserve pins Reserve against the draws it replaces: the block
// is the next n ranks in order, the clock ends where n calls of Next would
// leave it, and an empty reservation draws nothing.
func TestClockReserve(t *testing.T) {
	a, b := NewClock(5), NewClock(5)
	a.Next()
	b.Next()
	if a.Reserve(0); a != b {
		t.Fatalf("Reserve(0) moved the clock: %+v vs %+v", a, b)
	}
	first := a.Reserve(7)
	for k := uint64(0); k < 7; k++ {
		if want := b.Next(); first+k != want {
			t.Fatalf("rank %d of the block = %#x, Next drew %#x", k, first+k, want)
		}
	}
	if a != b {
		t.Fatalf("after the block the clocks differ: %+v vs %+v", a, b)
	}
	if a.Next() != b.Next() {
		t.Fatal("a draw after the block differs")
	}
}

// fired is one executed event as a handler sees it.
type fired struct {
	at   Time
	rank uint64
	arg  uint64
}

// upFront records every event it is handed; the reference side of the
// chain test schedules all of a source's occurrences on it before the run.
type upFront struct {
	eng *Engine
	log []fired
}

func (u *upFront) HandleEvent(_ uint8, arg uint64) {
	u.log = append(u.log, fired{u.eng.Now(), u.eng.Rank(), arg})
}

// chained is the streaming side: source s keeps one event parked and, as
// occurrence k fires, schedules k+1 under rank first + (k+1)·stride.
type chained struct {
	upFront
	times  [][]Time // per source, ascending
	first  []uint64
	stride []uint64
}

func (c *chained) park(s, k int) {
	if k < len(c.times[s]) {
		c.eng.ScheduleRanked(c.times[s][k], c.first[s]+uint64(k)*c.stride[s], c, 0, uint64(s)<<32|uint64(k))
	}
}

func (c *chained) HandleEvent(kind uint8, arg uint64) {
	c.upFront.HandleEvent(kind, arg)
	c.park(int(arg>>32), int(arg&0xffffffff)+1)
}

// TestReservedChainMatchesUpFront is the contract of Reserve +
// ScheduleRanked that the fabric's fault transitions and the kv service's
// request arrivals rely on: time-ordered sources that keep only their next
// occurrence queued fire the same (time, rank, arg) sequence as scheduling
// every occurrence before the run — with equal times inside a source and
// across sources, with several sources interleaving on one clock in
// round-robin draw order (the last round partial), and against unrelated
// events at the same instants — and leave every clock on the same
// sequence number.
func TestReservedChainMatchesUpFront(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		// Groups of sources, one clock per group; a group's sources draw
		// round-robin, so source j of the group has stride len(group).
		nGroups := 1 + rng.Intn(4)
		var times [][]Time
		var groupOf, posOf []int
		groups := make([][]int, nGroups)
		for g := range groups {
			members := 1 + rng.Intn(3)
			rounds := rng.Intn(30)
			partial := rng.Intn(members) // sources that get one more occurrence
			for j := 0; j < members; j++ {
				n := rounds
				if j < partial {
					n++
				}
				ts := make([]Time, n)
				at := Time(rng.Intn(3)) << wheelTickShift
				for k := range ts {
					// Mostly repeats and same-tick steps, sometimes a jump
					// to another wheel level.
					switch rng.Intn(6) {
					case 0, 1:
					case 2, 3:
						at += Time(rng.Intn(4))
					case 4:
						at += Time(rng.Intn(2000)) << wheelTickShift
					default:
						at += Time(rng.Intn(3)) << (wheelTickShift + wheelLevelBits)
					}
					ts[k] = at
				}
				groups[g] = append(groups[g], len(times))
				groupOf, posOf = append(groupOf, g), append(posOf, j)
				times = append(times, ts)
			}
		}
		// Unrelated traffic on a clock of its own, some of it at the
		// sources' own instants.
		var noise []Time
		for i := 0; i < 50; i++ {
			s := rng.Intn(len(times))
			if len(times[s]) > 0 && rng.Intn(2) == 0 {
				noise = append(noise, times[s][rng.Intn(len(times[s]))])
			} else {
				noise = append(noise, Time(rng.Intn(40000))<<wheelTickShift)
			}
		}
		newClocks := func() []Clock {
			clks := make([]Clock, nGroups+1)
			for g := range clks {
				clks[g] = NewClock(uint64(g))
				for i := rng.Intn(3); i > 0; i-- {
					clks[g].Next() // earlier draws, as attach events make
				}
			}
			return clks
		}
		seed := rng.Int63()

		// Reference: every occurrence drawn and scheduled before the run,
		// round by round within a group.
		rng.Seed(seed)
		refClks := newClocks()
		ref := &upFront{eng: NewEngine()}
		for g, members := range groups {
			for k := 0; ; k++ {
				drew := false
				for _, s := range members {
					if k < len(times[s]) {
						ref.eng.ScheduleEventFrom(&refClks[g], times[s][k], ref, 0, uint64(s)<<32|uint64(k))
						drew = true
					}
				}
				if !drew {
					break
				}
			}
		}
		for i, at := range noise {
			ref.eng.ScheduleEventFrom(&refClks[nGroups], at, ref, 0, ^uint64(i))
		}
		ref.eng.Run()

		// Chained: one block per group, one parked event per source.
		rng.Seed(seed)
		clks := newClocks()
		ch := &chained{upFront: upFront{eng: NewEngine()}, times: times,
			first: make([]uint64, len(times)), stride: make([]uint64, len(times))}
		for g, members := range groups {
			total := 0
			for _, s := range members {
				total += len(times[s])
			}
			first := clks[g].Reserve(total)
			for _, s := range members {
				ch.first[s], ch.stride[s] = first+uint64(posOf[s]), uint64(len(members))
			}
		}
		for s := range times {
			ch.park(s, 0)
		}
		if got := ch.eng.Pending(); got > len(times) {
			t.Fatalf("trial %d: %d events parked for %d sources", trial, got, len(times))
		}
		for i, at := range noise {
			ch.eng.ScheduleEventFrom(&clks[nGroups], at, &ch.upFront, 0, ^uint64(i))
		}
		ch.eng.Run()

		if !reflect.DeepEqual(ref.log, ch.log) {
			for i := range ref.log {
				if i >= len(ch.log) || ref.log[i] != ch.log[i] {
					t.Fatalf("trial %d: event %d of %d/%d differs: reference %+v, chained %+v (groups %v)",
						trial, i, len(ref.log), len(ch.log), ref.log[i], ch.log[min(i, len(ch.log)-1)], groupOf)
				}
			}
			t.Fatalf("trial %d: chained run fired %d events, reference %d", trial, len(ch.log), len(ref.log))
		}
		if !reflect.DeepEqual(refClks, clks) {
			t.Fatalf("trial %d: clocks ended apart: %+v vs %+v", trial, refClks, clks)
		}
	}
}
