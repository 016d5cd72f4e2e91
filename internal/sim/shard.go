package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Conservative-parallel execution: one simulation partitioned across S
// shard engines, advancing in lockstep through safe windows.
//
// The synchronization model is the classic conservative PDES null-message-
// free barrier variant, specialized to a fabric whose only cross-shard
// interactions ride links with a known minimum latency (the lookahead):
//
//   - At a barrier every shard is quiescent and every cross-shard event
//     produced so far has been drained into its destination engine.
//   - T = the minimum pending event time across all shards. No event
//     anywhere fires before T.
//   - Any cross-shard event produced by executing an event at time g is
//     due at g + lookahead or later. Since g >= T, nothing produced during
//     the window can land before T + lookahead.
//   - Therefore every shard may execute its events with at < T + lookahead
//     in parallel without ever receiving a straggler into that range.
//
// The lookahead is whatever minimum the producer can prove: bare link
// propagation always works, and fabric widens it to propagation plus the
// serialization delay of the smallest frame crossing a cut link by pushing
// boundary occurrences at serialization *start* (see fabric.NewPartitioned
// for the full argument).
//
// On top of the fixed-width window the coordinator layers an adaptive
// extension: the shard holding the global minimum event time may run past
// T + lookahead, up to secondMin + lookahead, where secondMin is the
// earliest pending event on any *other* shard — every other shard
// executes at g >= secondMin, so nothing it produces lands before
// secondMin + lookahead — and when no other shard holds any pending
// event at all, the minimum shard may run clear to the deadline. The one
// input that bound does not cover is the widened shard's own output
// bouncing back: a cross-shard occurrence it pushes with arrival time d
// can provoke a response due as early as d plus the minimum cross-shard
// latency, which a window stretching far past d would overrun. Producers
// close that hole themselves: every cross-engine push clamps the pushing
// engine's current window to d + slack via Engine.LimitWindow (see
// fabric's boundary channels), so a widened window survives exactly as
// long as the shard stays cross-shard silent. In sparse phases
// (endurance soaks, fault blackouts, flow-arrival tails) that collapses
// long runs of near-empty fixed windows into one barrier, while under
// dense boundary traffic windows self-clamp back to safety.
//
// Determinism does not depend on the window boundaries at all: events
// carry the canonical (at, rank) key, ranks are drawn by the producing
// node's Clock (whose sequence is a pure function of that node's
// deterministic execution), and each engine pops in exact key order. The
// window protocol only has to guarantee that every event is present in
// its engine before the engine's clock reaches it — which the lookahead
// argument above does. Serial execution with the same key visits the same
// events in the same order, so results are bit-identical for any shard
// count, including one.
type WindowConfig struct {
	// Engines are the shard engines, one per partition. A single engine
	// degenerates to windowed serial execution — same barrier cadence,
	// same Done semantics, so results match sharded runs exactly.
	Engines []*Engine
	// Lookahead is the minimum cross-shard event latency (at least the
	// link propagation delay for a partitioned fabric; see
	// fabric.Network.Lookahead for the widened bound). Values <= 0
	// degrade to one-timestep windows, which is only sensible for a
	// single engine.
	Lookahead Duration
	// Deadline bounds the run like Engine.RunUntil: events at or before
	// it execute, and if the run is cut short by it every engine's clock
	// advances to it. MaxTime means effectively unbounded; the window
	// arithmetic saturates rather than wrapping past it.
	Deadline Time
	// Drain, when non-nil, is called at each barrier, before the next
	// window is sized. It must move every pending inbound cross-shard
	// event into its destination engine (see fabric's boundary channels
	// and their dirty lists). It runs on the coordinating goroutine; the
	// barrier orders it against all shard execution.
	Drain func()
	// Done, when non-nil, is polled at each barrier; returning true ends
	// the run at Horizon. This replaces Engine.Stop for windowed runs: a
	// stop condition raised mid-window takes effect at a barrier, never
	// mid-window. Done requires Horizon.
	Done func() bool
	// Horizon is consulted once — at the first barrier where Done
	// reports true — and clamps the remaining run to
	// min(Deadline, Horizon()): the run continues through the window
	// protocol until that final deadline and every engine's clock lands
	// exactly on it. This makes the executed event set, and every
	// engine's final Now, a pure function of simulation state —
	// independent of the shard count AND of the lookahead width (a wider
	// lookahead reaches Done in a different window, but the clamped
	// deadline is the same). Callers derive the horizon from the done
	// condition itself, e.g. "time the last flow completed plus the
	// maximum window width ever usable" (fabric.Network.WindowSlack).
	Horizon func() Time
	// Widen gates the adaptive extension while a Done condition is armed
	// but not yet seen. Done is only polled at barriers, so letting the
	// minimum shard run far past the global safe window could carry it
	// beyond the instant Done first becomes true — executing events the
	// canonical (fixed-window) run would clamp away. Widen(shard) grants
	// the extension anyway; a hook that returns true must arrange for
	// that shard to stop itself (Engine.Stop) no later than the moment
	// the done condition turns true on it, which pins the executed-event
	// set back to the canonical horizon:
	//
	//   - If the last contribution to the done condition lands on the
	//     widened shard, the armed self-stop halts it there, the next
	//     barrier sees Done, and the Horizon clamp takes over.
	//   - If it lands on any other shard, that shard executed at or
	//     after secondMin, so the horizon is at least secondMin plus the
	//     window slack — past everything the widened window could run —
	//     and a stale self-stop either never fires or fires early, which
	//     only costs an extra barrier (pending events keep their turn).
	//
	// The hook runs on the coordinating goroutine at a barrier, so it
	// may read shard-owned completion counters freely. Nil (or Done nil
	// having never armed) means: extend freely once Done has been seen —
	// the deadline is already clamped — and never before.
	Widen func(shard int) bool
	// FixedWindows disables the adaptive extension entirely, restoring
	// fixed lookahead-width windows. Results are bit-identical either
	// way (the executed-event set is window-independent); the knob
	// exists for barrier-count comparisons and as an escape hatch.
	FixedWindows bool
	// Stats, when non-nil, is reset and filled with runtime counters for
	// this run: barrier rounds, widened windows, and per-shard work and
	// wait tallies. The wall-clock wait figures are nondeterministic;
	// everything else is a pure function of the run.
	Stats *WindowStats
}

// WindowStats are one windowed run's runtime counters, filled when
// WindowConfig.Stats is set.
type WindowStats struct {
	// Barriers counts dispatch rounds: barriers at which at least one
	// shard received a window. Fewer barriers for the same event count
	// means less synchronization overhead.
	Barriers uint64
	// WideWindows counts rounds where the adaptive extension actually
	// widened the minimum shard's window past the global safe width.
	WideWindows uint64
	// Shards holds per-shard tallies, indexed by shard.
	Shards []ShardWindowStats
}

// ShardWindowStats are one shard's runtime counters.
type ShardWindowStats struct {
	// Windows counts safe windows this shard actually executed (rounds
	// it was dispatched with pending work).
	Windows uint64
	// Events counts events executed inside those windows.
	Events uint64
	// BarrierWaitNs is wall-clock nanoseconds this shard spent parked at
	// the barrier waiting for the next dispatch — for shard 0 (which
	// runs on the coordinating goroutine), the time spent waiting for
	// the other shards to finish their windows. A skewed column is the
	// signature of partition imbalance. Wall-clock, so nondeterministic.
	BarrierWaitNs int64
}

// ShardPanic is the panic value RunWindows re-raises on the caller's
// goroutine when a shard panics inside its window. The original value and
// the panicking goroutine's stack ride along, so the real failure surfaces
// instead of a coordinator deadlock.
type ShardPanic struct {
	Shard int
	Value any
	Stack string
}

func (p ShardPanic) String() string {
	return fmt.Sprintf("sim: shard %d panicked in window: %v\n%s", p.Shard, p.Value, p.Stack)
}

// shardAck is one shard's end-of-window report to the coordinator.
type shardAck struct {
	shard    int
	panicVal any
	stack    []byte
}

// runWindowRecover runs one shard's window, converting a panic into an
// ack the coordinator can collect. Swallowing the panic here is what
// keeps the barrier protocol alive long enough for every other shard to
// ack; the coordinator re-raises it as a ShardPanic.
func runWindowRecover(e *Engine, shard int, w Time) (ack shardAck) {
	ack.shard = shard
	defer func() {
		if r := recover(); r != nil {
			ack.panicVal = r
			ack.stack = debug.Stack()
		}
	}()
	e.RunWindow(w)
	return
}

// windowEnd sizes the window starting at t: t + lookahead, saturated
// against overflow, clamped to deadline+1 (events exactly at the deadline
// still execute, RunUntil semantics). Caller guarantees t < MaxTime and
// t <= deadline.
func windowEnd(t Time, lookahead Duration, deadline Time) Time {
	w := t + Time(lookahead)
	if w < t {
		w = MaxTime // overflow saturates
	}
	if w <= t {
		w = t + 1 // zero lookahead: single-timestep window
	}
	if w > deadline {
		return deadlineEnd(deadline)
	}
	return w
}

// deadlineEnd is the window end that carries a shard through the deadline
// itself: deadline+1, except at MaxTime where the increment would wrap.
func deadlineEnd(deadline Time) Time {
	if deadline == MaxTime {
		return MaxTime
	}
	return deadline + 1
}

// windowBarrier is the shard rendezvous: an epoch/generation barrier over
// one mutex and two condition variables, replacing a per-window channel
// round trip per shard. The coordinator publishes each round as an epoch
// bump plus a per-shard window-end array (zero = sit this round out) and
// broadcasts; workers park on the work cond between rounds, run their
// window lock-free, then decrement the outstanding count, the last one
// waking the coordinator. One futex wake per side per round, no spinning,
// correct at GOMAXPROCS=1 and under the race detector.
//
// Every shared field is written under mu. Workers touch only their own
// stats slot, but even those writes stay under mu so the coordinator's
// final collect orders them for the caller.
type windowBarrier struct {
	mu   sync.Mutex
	work sync.Cond // workers park here between rounds
	idle sync.Cond // coordinator parks here until outstanding == 0

	epoch       uint64
	ends        []Time // per-shard window end this epoch; 0 = idle round
	outstanding int
	closed      bool
	fail        *shardAck

	stats []ShardWindowStats // nil when stats are off
}

func newWindowBarrier(n int, stats []ShardWindowStats) *windowBarrier {
	b := &windowBarrier{ends: make([]Time, n), stats: stats}
	b.work.L = &b.mu
	b.idle.L = &b.mu
	return b
}

// worker is shard i's goroutine body (shards 1..n-1; shard 0 runs on the
// coordinating goroutine). The closed check precedes any stats write, so
// once close() has run — which only happens after RunWindows' caller has
// the coordinator back — a late-waking worker exits without touching
// memory the caller may now own.
func (b *windowBarrier) worker(e *Engine, shard int) {
	seen := uint64(0)
	b.mu.Lock()
	for {
		var start time.Time
		if b.stats != nil {
			start = time.Now()
		}
		for b.epoch == seen && !b.closed {
			b.work.Wait()
		}
		if b.closed {
			b.mu.Unlock()
			return
		}
		seen = b.epoch
		w := b.ends[shard]
		if b.stats != nil {
			b.stats[shard].BarrierWaitNs += time.Since(start).Nanoseconds()
		}
		b.mu.Unlock()

		var ack shardAck
		ran := w != 0
		before := e.Executed()
		if ran {
			ack = runWindowRecover(e, shard, w)
		}

		b.mu.Lock()
		if ran && b.stats != nil {
			b.stats[shard].Windows++
			b.stats[shard].Events += e.Executed() - before
		}
		if ack.panicVal != nil && b.fail == nil {
			cp := ack
			b.fail = &cp
		}
		b.outstanding--
		if b.outstanding == 0 {
			b.idle.Signal()
		}
	}
}

// round publishes one window round, runs shard 0's share inline, waits for
// every worker to report back, and re-raises the first shard panic (shard
// 0's own taking precedence, since the others still completed their
// windows).
func (b *windowBarrier) round(e0 *Engine, ends []Time) {
	b.mu.Lock()
	copy(b.ends, ends)
	b.epoch++
	b.outstanding = len(ends) - 1
	b.mu.Unlock()
	b.work.Broadcast()

	var failed *shardAck
	if w := ends[0]; w != 0 {
		before := e0.Executed()
		if ack := runWindowRecover(e0, 0, w); ack.panicVal != nil {
			failed = &ack
		}
		if b.stats != nil {
			b.stats[0].Windows++
			b.stats[0].Events += e0.Executed() - before
		}
	}

	b.mu.Lock()
	var start time.Time
	if b.stats != nil {
		start = time.Now()
	}
	for b.outstanding > 0 {
		b.idle.Wait()
	}
	if b.stats != nil {
		b.stats[0].BarrierWaitNs += time.Since(start).Nanoseconds()
	}
	if failed == nil {
		failed = b.fail
	}
	b.fail = nil
	b.mu.Unlock()

	if failed != nil {
		panic(ShardPanic{Shard: failed.shard, Value: failed.panicVal, Stack: string(failed.stack)})
	}
}

// close releases the workers for good. Only called with every round fully
// collected (outstanding == 0), so all workers are parked and exit on the
// wake without writing anything.
func (b *windowBarrier) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.work.Broadcast()
}

// RunWindows executes a group of shard engines to completion under the
// conservative window protocol. It returns true when the run ended via
// the Done hook, false when the event population drained or the deadline
// cut it short; on every exit path every engine's clock lands on the
// final deadline. It panics when Done is set without Horizon.
//
// Coordination is an epoch barrier (see windowBarrier) — one broadcast
// out, one wake back per round, no spinning — so the runner is correct
// (if not parallel) at GOMAXPROCS=1 and under the race detector. A window
// is dispatched only to shards whose next pending event falls inside it;
// idle shards wake, see the zero sentinel, and report straight back.
func RunWindows(cfg WindowConfig) bool {
	if cfg.Done != nil && cfg.Horizon == nil {
		panic("sim: WindowConfig.Done requires WindowConfig.Horizon")
	}
	n := len(cfg.Engines)
	if n == 0 {
		return false
	}
	stats := cfg.Stats
	if stats != nil {
		*stats = WindowStats{Shards: make([]ShardWindowStats, n)}
	}

	// Shard 0 always runs on the coordinating goroutine: a 1-shard group
	// needs no barrier at all, and wider groups save one wake per round.
	var b *windowBarrier
	ends := make([]Time, n)
	if n > 1 {
		var sh []ShardWindowStats
		if stats != nil {
			sh = stats.Shards
		}
		b = newWindowBarrier(n, sh)
		for i := 1; i < n; i++ {
			go b.worker(cfg.Engines[i], i)
		}
		defer b.close()
	}

	doneSeen := false
	for {
		// Barrier: all shards quiescent. Drain cross-shard channels, then
		// decide whether and how far to run.
		if cfg.Drain != nil {
			cfg.Drain()
		}
		if !doneSeen && cfg.Done != nil && cfg.Done() {
			doneSeen = true
			if h := cfg.Horizon(); h < cfg.Deadline {
				cfg.Deadline = h
			}
		}
		// One scan finds the global minimum event time t, the shard m
		// holding it, and the minimum over the *other* shards (the
		// adaptive extension's bound). An idle shard's cached next-event
		// time makes this O(1) per shard.
		var (
			t, second        Time
			have, haveSecond bool
			m                int
		)
		for i, e := range cfg.Engines {
			at, ok := e.NextEventTime()
			if !ok {
				continue
			}
			switch {
			case !have || at < t:
				if have && (!haveSecond || t < second) {
					second, haveSecond = t, true // old minimum demotes
				}
				t, have, m = at, true, i
			case !haveSecond || at < second:
				second, haveSecond = at, true
			}
		}
		if !have || t > cfg.Deadline {
			for _, e := range cfg.Engines {
				e.AdvanceTo(cfg.Deadline)
			}
			return doneSeen
		}
		if t == MaxTime {
			// Final representable instant: no window can extend past it.
			// Every pending event fires at exactly MaxTime, and nothing
			// they produce can be due earlier (or later — scheduling past
			// MaxTime wraps and panics as a past-time model bug), so the
			// shards cannot interact and run sequentially here.
			for _, e := range cfg.Engines {
				e.RunUntil(MaxTime)
			}
			continue
		}
		w := windowEnd(t, cfg.Lookahead, cfg.Deadline)
		// Adaptive extension for the minimum shard. Safe unconditionally
		// when no Done condition is pending (the deadline alone bounds
		// the run, and nothing another shard executes this round lands
		// before second + lookahead); while Done is armed, only a Widen
		// hook that pins the stop point may grant it — see Widen.
		//
		// Single-engine groups never extend: the lookahead argument only
		// covers events crossing *between* engines, and a lone engine's
		// Drain hook may legitimately feed events back into itself one
		// lookahead out (windowed serial execution), which a deadline-wide
		// window would overrun. There is no barrier concurrency to save
		// there anyway.
		wm := w
		if n > 1 && !cfg.FixedWindows && (!haveSecond || second > t) &&
			(cfg.Done == nil || doneSeen || (cfg.Widen != nil && cfg.Widen(m))) {
			wm = deadlineEnd(cfg.Deadline)
			if haveSecond && second < cfg.Deadline {
				wm = windowEnd(second, cfg.Lookahead, cfg.Deadline)
			}
		}
		if stats != nil {
			stats.Barriers++
			if wm > w {
				stats.WideWindows++
			}
		}
		// Dispatch only to shards with work inside the window; the
		// minimum shard m (which always qualifies) gets the extended end.
		for i, e := range cfg.Engines {
			ends[i] = 0
			if at, ok := e.NextEventTime(); !ok || at >= w {
				continue
			}
			ends[i] = w
		}
		ends[m] = wm
		if n == 1 {
			before := cfg.Engines[0].Executed()
			ack := runWindowRecover(cfg.Engines[0], 0, ends[0])
			if stats != nil {
				stats.Shards[0].Windows++
				stats.Shards[0].Events += cfg.Engines[0].Executed() - before
			}
			if ack.panicVal != nil {
				panic(ShardPanic{Shard: 0, Value: ack.panicVal, Stack: string(ack.stack)})
			}
			continue
		}
		b.round(cfg.Engines[0], ends)
	}
}
