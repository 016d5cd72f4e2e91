package sim

// Handler receives typed events from the engine's closure-free scheduling
// path. One object typically serves several event kinds (a port's
// "serialization done" and "arrival", a congestion controller's two
// timers); kind discriminates them and arg carries a small payload (a
// generation counter, an index, packed node IDs). Kind values are private
// to each Handler implementation.
type Handler interface {
	HandleEvent(kind uint8, arg uint64)
}

// Event is a scheduled callback. The engine's total order is the canonical
// key (at, rank): firing time first, then the rank — a 64-bit value packing
// the scheduling Clock's stable ID above a per-clock sequence number.
// Events scheduled by one clock at equal times run FIFO; events from
// different clocks tie-break by clock ID. Because ranks are derived from
// stable per-node identity rather than a global counter, the order is a
// pure function of simulation state: a sharded run merging events from
// several engines reproduces it bit-for-bit (see RunWindows).
//
// Every event fires through its Handler; a closure rides the same path as
// a funcHandler (see Schedule), so the queue stores one 48-byte shape and
// the dispatch loop has no branch.
type event struct {
	at   Time
	rank uint64
	h    Handler
	arg  uint64
	kind uint8
}

// Rank layout: the top 24 bits carry the scheduling clock's stable ID, the
// low 40 bits its per-clock sequence. 2^40 events per node per run and
// 2^24 distinct clocks are both orders of magnitude beyond any simulated
// fabric; the engine's own fallback clock sits at the top of the ID space,
// above every topology node.
const (
	rankSeqBits   = 40
	rankSeqMask   = 1<<rankSeqBits - 1
	engineClockID = 1<<24 - 1
)

// Clock is a deterministic rank source for one scheduling entity —
// typically one topology node, shared by everything that schedules on the
// node's behalf (its ports, transports, and timers). The (at, rank)
// ordering key makes event order a function of WHO schedules rather than
// a global insertion counter, which is what lets a partitioned run
// reproduce serial order exactly: each node's clock advances identically
// regardless of how nodes are spread across shard engines.
type Clock struct {
	base uint64
	seq  uint64
}

// NewClock returns a clock with the given stable ID (must be unique among
// the clocks feeding one engine group, and below engineClockID).
func NewClock(id uint64) Clock { return Clock{base: id << rankSeqBits} }

// Next returns the next rank: clock ID above a monotonic sequence.
func (c *Clock) Next() uint64 {
	c.seq++
	return c.base | c.seq&rankSeqMask
}

// Reserve draws n consecutive ranks at once and returns the first; the
// k-th is first+k. A source whose events are time-ordered (a link's fault
// transitions, a client's request arrivals) reserves its block where the
// up-front loop would have drawn it and then keeps one event parked,
// scheduling the next with ScheduleRanked as each fires: every event
// keeps the (at, rank) key it would have had, and the queue holds one per
// source instead of one per occurrence. Reserve(0) draws nothing.
func (c *Clock) Reserve(n int) (first uint64) {
	first = c.base | (c.seq+1)&rankSeqMask
	c.seq += uint64(n)
	return first
}

// Reset rewinds the clock's sequence for a new run.
func (c *Clock) Reset() { c.seq = 0 }

// eventHeap is a binary min-heap ordered by (at, rank), hand-rolled rather
// than built on container/heap to avoid the heap.Interface boxing and
// indirect calls. It is not the engine's main queue — the hierarchical
// timing wheel (wheel.go) is, with a sorted slice (`ready`) as its
// execution frontier — but it backs three things: the wheel's `late`
// stragglers, its far-future overflow, and the reference model the wheel
// is differentially tested against (FuzzEventOrder).
type eventHeap []event

// less orders events by the canonical (at, rank) key.
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].rank < h[j].rank
}

// push appends and sifts up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// drop removes the minimum event, which callers read in place at h[0]
// first; it returns nothing, so the dispatch loop copies no event out of
// a call (see Engine.run).
func (h *eventHeap) drop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q[n].h = nil // release the handler for GC
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// Engine is a single-threaded discrete-event scheduler. A sharded
// simulation runs one Engine per shard under the RunWindows coordinator;
// a serial one drives a single Engine directly. Both order events by the
// same canonical (at, rank) key, which is what keeps serial and sharded
// execution bit-identical.
//
// The zero value is not ready for use; call NewEngine.
type Engine struct {
	now     Time
	rank    uint64 // rank of the executing (or last executed) event, see Rank
	clk     Clock  // fallback rank source for un-clocked scheduling
	queue   timingWheel
	stopped bool

	// nextAt/nextKnown cache the earliest pending event's firing time, so
	// NextEventTime is an O(1) read at window barriers instead of a
	// front() that may cascade the wheel's refill on an engine that is
	// not about to run. RunWindow primes the cache on exit with the front
	// it already found (inside the parallel section, on the shard's own
	// goroutine); pushes can only lower it. Dispatch invalidates it too,
	// but to keep the per-event loop free of cache bookkeeping that is
	// done once at run-loop entry rather than per event — between runs
	// the cache is only ever read at barriers, where the last RunWindow
	// exit has re-primed it.
	nextAt    Time
	nextKnown bool

	// timerGen is the last generation a Timer on this engine drew (see
	// Timer.scheduleAt). It only grows, so no two timer events the engine
	// ever queues carry the same generation.
	timerGen uint64

	// Stats.
	executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{clk: NewClock(engineClockID)}
}

// Reset returns the engine to its just-constructed state — clock at zero,
// empty queue, zeroed counters — while keeping the queue's block store
// and frontier warm; no handler of the previous run stays reachable. The
// fleet runner resets one engine per worker between trials instead of
// constructing a new one; any Timer attached to the engine must be Reset
// alongside it (its pending event is discarded with the queue).
func (e *Engine) Reset() {
	e.now, e.rank, e.executed = 0, 0, 0
	e.clk.Reset()
	e.stopped = false
	e.nextAt, e.nextKnown = 0, false
	e.queue.reset()
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rank returns the rank of the executing event — with Now, the engine's
// position in the canonical (at, rank) order: every event keyed at or
// before (Now(), Rank()) has run, none keyed after it has. That lets a
// model decide whether an instant it only recorded, never scheduled, has
// already passed (a port's serialization end, see fabric). Between runs it
// is the last executed event's rank, or the maximum once the clock has
// been moved past the last event to a deadline.
func (e *Engine) Rank() uint64 { return e.rank }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int { return e.queue.size }

// checkTime panics on scheduling in the past (before the current clock):
// it always indicates a model bug, and silently reordering time corrupts
// results in ways that are very hard to debug.
func (e *Engine) checkTime(at Time) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
}

// noteSchedule keeps the next-event cache correct across pushes: a new
// event can only lower the cached minimum, never raise it.
func (e *Engine) noteSchedule(at Time) {
	if e.nextKnown && at < e.nextAt {
		e.nextAt = at
	}
}

// ScheduleEventFrom runs h.HandleEvent(kind, arg) at absolute time at,
// ranking the event under clk — the hot path for everything owned by a
// topology node. It allocates only when the timing wheel's block store
// runs out of free blocks, which a warmed-up simulation whose pending
// events stay within their earlier peak never does. A nil clk falls back to the engine's own clock; runs that are
// (or may be) sharded must pass the owning node's clock, because the
// engine clock is engine-local and would order differently across shard
// counts.
func (e *Engine) ScheduleEventFrom(clk *Clock, at Time, h Handler, kind uint8, arg uint64) {
	e.checkTime(at)
	if clk == nil {
		clk = &e.clk
	}
	e.noteSchedule(at)
	e.queue.push(event{at: at, rank: clk.Next(), h: h, kind: kind, arg: arg})
}

// AfterEventFrom runs h.HandleEvent(kind, arg) d after the current time,
// ranked under clk.
func (e *Engine) AfterEventFrom(clk *Clock, d Duration, h Handler, kind uint8, arg uint64) {
	e.ScheduleEventFrom(clk, e.now.Add(d), h, kind, arg)
}

// ScheduleEvent runs h.HandleEvent(kind, arg) at absolute time at, ranked
// under the engine's own clock (equal-time calls run FIFO). Convenience
// form for tests and single-engine tools; shard-safe code passes a node
// clock via ScheduleEventFrom.
func (e *Engine) ScheduleEvent(at Time, h Handler, kind uint8, arg uint64) {
	e.ScheduleEventFrom(nil, at, h, kind, arg)
}

// AfterEvent runs h.HandleEvent(kind, arg) d after the current time.
func (e *Engine) AfterEvent(d Duration, h Handler, kind uint8, arg uint64) {
	e.ScheduleEvent(e.now.Add(d), h, kind, arg)
}

// ScheduleRanked inserts an event whose rank was already drawn from a
// Clock — by a cross-shard channel at production time on another engine,
// or by a port that draws its ranks at a fixed call site and schedules
// (or elides) the events later. Each drawn rank keys at most one event, so
// ordering cannot collide. This is also the shard-merge entry point:
// draining a channel re-ranks nothing, so the merged order equals the
// serial order.
func (e *Engine) ScheduleRanked(at Time, rank uint64, h Handler, kind uint8, arg uint64) {
	e.checkTime(at)
	e.noteSchedule(at)
	e.queue.push(event{at: at, rank: rank, h: h, kind: kind, arg: arg})
}

// RankedEvent is one pre-ranked occurrence for ScheduleRankedBatch: the
// (At, Rank) key plus the handler dispatch payload.
type RankedEvent struct {
	At   Time
	Rank uint64
	Arg  uint64
	Kind uint8
}

// ScheduleRankedBatch inserts a batch of pre-ranked events for a single
// handler in one call — the barrier drain path for cross-shard channels,
// which would otherwise pay per-event call and cache-update overhead for
// every packet that crossed a cut link during the window. Entries may be
// in any order (a boundary channel's push order is nearly sorted, but a
// PFC frame generated mid-serialization is due before the data packet
// pushed ahead of it); one scan finds the batch minimum for the past-time
// check and the next-event cache.
func (e *Engine) ScheduleRankedBatch(h Handler, evs []RankedEvent) {
	if len(evs) == 0 {
		return
	}
	earliest := evs[0].At
	for i := 1; i < len(evs); i++ {
		if evs[i].At < earliest {
			earliest = evs[i].At
		}
	}
	e.checkTime(earliest)
	e.noteSchedule(earliest)
	e.queue.pushBatch(h, evs)
}

// funcHandler adapts a closure to Handler. Func values are pointer-shaped,
// so the conversion to the interface does not allocate.
type funcHandler func()

func (f funcHandler) HandleEvent(uint8, uint64) { f() }

// Schedule runs fn at absolute time at, ranked under the engine's own
// clock — the closure convenience form for tests, examples and one-shot
// setup work. Hot callers use ScheduleEventFrom.
func (e *Engine) Schedule(at Time, fn func()) { e.ScheduleEvent(at, funcHandler(fn), 0, 0) }

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.now.Add(d), fn) }

// Run executes events until the queue empties or Stop is called.
func (e *Engine) Run() { e.run(MaxTime, 0, false) }

// RunUntil executes events until the queue empties, Stop is called, or the
// next event would fire after deadline. If the deadline cut the run short,
// the clock advances to it; if Stop fired or the queue drained, the clock
// stays at the last executed event.
func (e *Engine) RunUntil(deadline Time) { e.run(deadline, 0, false) }

// RunWindow executes events with firing time strictly before end, in
// (at, rank) order, leaving the clock at the last executed event. This is
// one shard's share of a conservative safe window: end is chosen by the
// RunWindows coordinator so that no event produced concurrently on
// another shard can land inside it. Stop() is honored mid-window for
// symmetry with Run, though windowed runs normally terminate via the
// coordinator's Done hook.
func (e *Engine) RunWindow(end Time) { e.run(MaxTime, end, true) }

// run is the one dispatch loop. Each iteration reads the earliest event
// where it lies in the queue, checks Stop and then the bound, copies the
// fields out, drops the event and calls the handler. The copy precedes the
// drop, which for a late event moves another event into the slot; no
// handler holds a pointer into the queue, so nothing it schedules can
// alias the event being dispatched. The event never comes back by value
// from a call that is not inlined: the spill and wider reload that costs
// fails store-to-load forwarding on every event.
//
// Stop precedes the bound: after Stop, advancing the clock to deadline
// would teleport the caller past events that never ran. With window set
// the bound is RunWindow's end instead, fixed for the whole window; on
// exit the front just found primes the next-event cache, its refill paid
// on the shard's own goroutine inside the parallel section.
func (e *Engine) run(deadline, end Time, window bool) {
	e.stopped = false
	e.nextKnown = false
	q := &e.queue
	for q.size > 0 && !e.stopped {
		ev, late := q.front()
		if window && ev.at >= end {
			e.nextAt, e.nextKnown = ev.at, true
			return
		}
		if ev.at > deadline {
			e.AdvanceTo(deadline)
			return
		}
		at, rank, h, kind, arg := ev.at, ev.rank, ev.h, ev.kind, ev.arg
		q.drop(late)
		e.now, e.rank = at, rank
		e.executed++
		h.HandleEvent(kind, arg)
	}
}

// NextEventTime reports the firing time of the earliest pending event.
// It is cheap and non-mutating when the cache is warm — which RunWindow
// keeps it between windows — so barrier scans never trigger wheel refill
// cascades on engines that are not about to run.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.queue.size == 0 {
		return 0, false
	}
	if !e.nextKnown {
		ev, _ := e.queue.front()
		e.nextAt, e.nextKnown = ev.at, true
	}
	return e.nextAt, true
}

// AdvanceTo moves the clock forward to t without executing anything —
// the windowed counterpart of RunUntil's deadline semantics; callers have
// run every event due at or before t, so the position in the (at, rank)
// order moves past all of instant t. Moving backwards is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t >= e.now {
		e.now, e.rank = t, ^uint64(0)
	}
}

// Stop halts Run/RunUntil after the current event completes. Pending events
// remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a cancellable, re-armable one-shot timer.
//
// Re-arming is lazy: at most one engine event is ever pending per timer.
// Transports re-arm their retransmission timer on nearly every packet
// (pushing the deadline later); scheduling a fresh event each time would
// flood the heap with dead entries. Instead the pending event, when it
// fires, checks the live deadline and reschedules itself if the deadline
// moved. This keeps the event queue proportional to the number of timers,
// not the number of arms.
//
// The timer's engine event rides the typed-handler path (the Timer is its
// own Handler, with the generation counter as the event argument), so
// arming and re-arming never allocate. Generations are drawn per engine,
// not per timer: an event carries a generation no other event on its
// engine ever had, so re-Init of a timer whose earlier events are still
// queued — an object recycled for a new flow — is safe: those events can
// never match the new life's generation, and lapse. The fire target is either a typed
// (Handler, kind) pair — NewHandlerTimer, the allocation-free form — or a
// plain func() for convenience.
type Timer struct {
	eng      *Engine
	clk      *Clock // rank source; nil falls back to the engine clock
	fn       func()
	h        Handler // fire target when fn is nil
	kind     uint8
	deadline Time
	armed    bool
	pending  bool   // an engine event is queued for this timer
	pendAt   Time   // when that event fires
	pendGen  uint64 // the queued event's generation; any other lapses
}

// NewTimer creates a timer that invokes fn when it fires. The timer starts
// unarmed and ranks its events under the engine's own clock (test and
// example convenience; not shard-safe).
func NewTimer(eng *Engine, fn func()) *Timer {
	return &Timer{eng: eng, fn: fn}
}

// NewHandlerTimer creates a timer that invokes h.HandleEvent(kind, 0) when
// it fires, avoiding even the one-time closure allocation of NewTimer.
// The timer starts unarmed and ranks its engine events under clk — the
// owning node's clock, so timer events keep their canonical order under
// sharded execution. A nil clk falls back to the engine clock.
func NewHandlerTimer(eng *Engine, clk *Clock, h Handler, kind uint8) *Timer {
	t := new(Timer)
	t.Init(eng, clk, h, kind)
	return t
}

// Init is NewHandlerTimer in place, for a Timer embedded by value in the
// object it fires into. The timer must not be copied afterwards: its
// pending engine event points at it. Init may run again while events of
// the timer's previous life are queued — they lapse (see Timer).
func (t *Timer) Init(eng *Engine, clk *Clock, h Handler, kind uint8) {
	*t = Timer{eng: eng, clk: clk, h: h, kind: kind}
}

// Arm (re)schedules the timer to fire d from now, replacing any previous
// schedule.
func (t *Timer) Arm(d Duration) { t.ArmAt(t.eng.now.Add(d)) }

// ArmAt (re)schedules the timer to fire at absolute time at.
func (t *Timer) ArmAt(at Time) {
	t.deadline = at
	t.armed = true
	if t.pending && t.pendAt <= at {
		return // the queued event will notice the new deadline
	}
	t.scheduleAt(at)
}

// scheduleAt queues the pending engine event, superseding any earlier one.
// The generation comes from the engine, so it is new to this timer's
// current life and to every earlier life of the same memory.
func (t *Timer) scheduleAt(at Time) {
	t.pending = true
	t.pendAt = at
	t.eng.timerGen++
	t.pendGen = t.eng.timerGen
	t.eng.ScheduleEventFrom(t.clk, at, t, 0, t.pendGen)
}

// HandleEvent implements Handler: the queued engine event. arg is the
// generation the event was scheduled under.
func (t *Timer) HandleEvent(_ uint8, arg uint64) { t.tick(arg) }

// tick is the queued engine event: fire, reschedule, or lapse.
func (t *Timer) tick(gen uint64) {
	if gen != t.pendGen {
		return // superseded by a re-arm to an earlier deadline
	}
	t.pending = false
	if !t.armed {
		return
	}
	if t.deadline > t.eng.now {
		t.scheduleAt(t.deadline)
		return
	}
	t.armed = false
	if t.fn != nil {
		t.fn()
	} else {
		t.h.HandleEvent(t.kind, 0)
	}
}

// Cancel disarms the timer. Safe to call when unarmed. The pending engine
// event, if any, lapses harmlessly.
func (t *Timer) Cancel() { t.armed = false }

// Reset returns the timer to its just-created state. Required after
// Engine.Reset, which discards the timer's pending engine event wholesale:
// a stale pending flag would otherwise make the next Arm believe an event
// is already queued and never schedule one.
func (t *Timer) Reset() {
	t.deadline, t.armed = 0, false
	t.pending, t.pendAt, t.pendGen = false, 0, 0
}

// Armed reports whether the timer is scheduled to fire.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the time the timer will fire; valid only when Armed.
func (t *Timer) Deadline() Time { return t.deadline }
