package sim

import (
	"math/bits"
	"slices"
)

// The engine's event queue is a hierarchical timing wheel. A binary heap
// pays O(log n) sift cost per push and pop against the whole pending
// population (measured ~2300 standing events in a loaded fabric, ~12
// levels of 48-byte swaps each way); the wheel pays O(1) bucket placement
// per push and a bitmap scan per clock advance, because discrete-event
// time lets events be bucketed by firing tick and only the slot at the
// cursor ever needs exact ordering.
//
// Geometry: wheelLevels levels of wheelSlots power-of-two buckets. One
// level-0 slot is one tick (2^wheelTickShift ps), and level 0 *slides*:
// any event within wheelSlots ticks of the cursor maps to slot
// tick mod wheelSlots, so the datapath's short-horizon events (packet
// serialization at ~200 ns, propagation at 2 µs ≈ 488 ticks) always place
// directly at level 0, never through a cascade. Each level above is
// window-aligned and covers wheelSlots× the span below it; an event lands
// at the lowest level whose current window (the aligned range of ticks
// sharing the cursor's upper bits) contains its tick, and events beyond
// the top level's window go to a far-future overflow heap that refills
// the wheels when the cursor rolls into their window. With a 4.1 ns tick
// and 1024 slots the spans are ~4.2 µs (sliding) / 4.3 ms / 4.4 s / 75 min:
// retransmission timers resolve at level 1, flow arrivals at levels 1–2,
// and the overflow heap is touched only by pathological schedules.
//
// The tick is sized against the drain, not against time resolution: a
// slot is sorted as it drains, and at k=16 a 4 ns slot averages 16 events
// where a 16 ns one held four times that. The slot count follows from the
// sliding span, which must cover one propagation plus one serialization
// delay.
//
// Memory: a bucket is a chain of fixed 16-event blocks drawn from one LIFO
// free list (see blockEvents), so the wheel holds its pending events plus
// at most one partly filled block per occupied slot, whatever size a
// slot once reached.
//
// Determinism: dispatch order is exactly the canonical (at, rank) key —
// bit-identical to the reference heap the wheel is differentially tested
// against. Three facts make this exact rather than approximate: (1) the
// frontier (`ready` plus the `late` heap) holds every pending event with
// tick <= cur, fully ordered by full key, so same-tick events and late
// arrivals interleave exactly; (2) wheels hold only ticks > cur, and the
// cursor visits occupied slots in strictly increasing tick order — the
// sliding level-0 scan goes ahead-then-wrapped, and an aligned cascade due
// at the block boundary merges its bucket into the same sliding slots
// before any wrapped slot drains; (3) a higher-level bucket's window
// start is pinned strictly above the cursor's index at that level, so a
// forward bitmap scan never skips an occupied bucket. TestWheelMatchesHeap
// and FuzzEventOrder drive the wheel and a reference heap side by side on
// randomized schedules to enforce this.
const (
	wheelTickShift = 12 // tick granularity: 2^12 ps ≈ 4.1 ns
	wheelLevelBits = 10
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 4
	wheelSpanBits  = wheelLevels * wheelLevelBits // tick bits the wheels cover
)

// timingWheel is the hierarchical event queue. The zero value is ready for
// use.
type timingWheel struct {
	// cur is the cursor tick: ready holds every pending event with
	// tick <= cur, wheel buckets and the overflow heap everything after.
	cur  uint64
	size int

	// ready[head:] is the execution frontier, sorted ascending by
	// (at, rank): dispatch reads it in place, front to back, and a
	// drained level-0 slot (whose handful of events share one tick)
	// replaces it as one sorted batch.
	// Consumed entries before head are not zeroed — the next drain
	// overwrites them, and the handlers they pin outlive the engine's
	// queue anyway (reset clears everything for the cross-run case).
	ready []event
	head  int

	// late holds stragglers: events scheduled at a tick the cursor has
	// already reached or passed (~0.4% of traffic in a loaded fabric).
	// They cannot join ready without a mid-run memmove, so they sit in a
	// small (at, rank) heap that front merges against the frontier; on
	// pathological all-same-tick schedules this degrades to exactly the
	// old global heap's O(log n), never worse.
	late eventHeap

	// bucket[lvl][idx] holds events whose tick maps to slot idx of level
	// lvl's current window, as a chain of blocks; occ mirrors
	// non-emptiness as a bitmap so the cursor skips runs of empty slots in
	// a few word reads.
	bucket [wheelLevels][wheelSlots]chain
	occ    [wheelLevels][wheelSlots / 64]uint64

	// free is the block store's LIFO free list, threaded through the
	// blocks' next links: a drained chain splices onto it whole, and the
	// next block placement takes the block drained last, still in cache.
	// chunks remembers every block ever allocated, for reset.
	free   *eventBlock
	chunks []*[chunkBlocks]eventBlock

	// overflow holds events beyond the top level's window.
	overflow eventHeap
}

// Block store geometry (see Memory above). A warmed engine whose pending
// population stays within its earlier peak allocates nothing.
const (
	blockEvents = 16 // events per block (768 bytes)
	chunkBlocks = 64 // blocks per allocation (about 49 KB)
)

// eventBlock is one block of the store: up to blockEvents events of a
// bucket, and the link to the next block of the bucket's chain or of the
// free list.
type eventBlock struct {
	evs  [blockEvents]event
	next *eventBlock
}

// chain is one bucket: n events filling blocks head … tail in placement
// order, every block but the tail full. The tail's next link is stale
// (n, not a nil link, ends a walk).
type chain struct {
	head, tail *eventBlock
	n          int
}

// tickOf maps an absolute time to its wheel tick.
func tickOf(at Time) uint64 { return uint64(at) >> wheelTickShift }

// eventBefore is the engine's total event order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.rank < b.rank
}

// push enqueues ev.
func (w *timingWheel) push(ev event) {
	w.size++
	w.place(ev)
}

// pushBatch enqueues a batch of pre-ranked events for one handler in a
// single call: one size update and a tight placement loop, the bulk
// counterpart of push for barrier drains of cross-shard channels.
func (w *timingWheel) pushBatch(h Handler, evs []RankedEvent) {
	w.size += len(evs)
	for i := range evs {
		w.place(event{at: evs[i].At, rank: evs[i].Rank, h: h, kind: evs[i].Kind, arg: evs[i].Arg})
	}
}

// place routes ev to late, a wheel bucket, or the overflow heap. Events
// at or before the cursor go to late — that is what keeps late arrivals
// (scheduled mid-window after the cursor advanced past their tick) ahead
// of every wheel event, in exact (at, rank) order.
func (w *timingWheel) place(ev event) {
	t := tickOf(ev.at)
	if t <= w.cur {
		w.late.push(ev)
		return
	}
	lvl := 0
	var idx uint64
	if t-w.cur < wheelSlots {
		// Sliding level 0: any tick within wheelSlots of the cursor maps
		// to slot t mod wheelSlots, regardless of window alignment. This
		// is what keeps the datapath's short-horizon events (packet
		// serialization, propagation) out of the cascade path entirely —
		// with aligned windows, every event scheduled past the window
		// edge would detour through a level-1 bulk bucket.
		idx = t & wheelSlotMask
	} else {
		x := t ^ w.cur
		lvl = (bits.Len64(x) - 1) / wheelLevelBits
		if lvl >= wheelLevels {
			w.overflow.push(ev)
			return
		}
		idx = (t >> (lvl * wheelLevelBits)) & wheelSlotMask
	}
	c := &w.bucket[lvl][idx]
	off := c.n & (blockEvents - 1)
	if off == 0 {
		blk := w.takeBlock()
		if c.n == 0 {
			c.head = blk
			w.occ[lvl][idx>>6] |= 1 << (idx & 63)
		} else {
			c.tail.next = blk
		}
		c.tail = blk
	}
	c.tail.evs[off] = ev
	c.n++
}

// takeBlock pops a block off the free list, allocating a chunk when it is
// empty. The block's contents are stale; place overwrites them.
func (w *timingWheel) takeBlock() *eventBlock {
	if w.free == nil {
		blks := new([chunkBlocks]eventBlock)
		w.chunks = append(w.chunks, blks)
		w.thread(blks)
	}
	blk := w.free
	w.free = blk.next
	return blk
}

// thread pushes a chunk's blocks onto the free list, so that its first
// block comes off first.
func (w *timingWheel) thread(blks *[chunkBlocks]eventBlock) {
	for i := len(blks) - 1; i >= 0; i-- {
		blks[i].next = w.free
		w.free = &blks[i]
	}
}

// release splices a drained chain onto the free list whole.
func (w *timingWheel) release(c chain) {
	c.tail.next = w.free
	w.free = c.head
}

// front returns the earliest pending event where it lies — late[0] or
// ready[head] — and whether it is late's, refilling the frontier first
// when it is empty. Caller guarantees size > 0; the pointer is valid
// until the next push or drop. Late events hold ticks at or before the
// cursor and wheel events ticks after it, so merging the two orderings is
// a single comparison — and the branch is free whenever late is empty.
// Refilling may advance the cursor, which is safe: events scheduled
// afterwards at a tick the cursor already passed are placed into late,
// not a stale bucket.
func (w *timingWheel) front() (*event, bool) {
	if w.head == len(w.ready) && len(w.late) == 0 {
		w.refill()
	}
	if len(w.late) > 0 &&
		(w.head == len(w.ready) || eventBefore(&w.late[0], &w.ready[w.head])) {
		return &w.late[0], true
	}
	return &w.ready[w.head], false
}

// drop removes the event front just returned; late says where it lay.
func (w *timingWheel) drop(late bool) {
	w.size--
	if late {
		w.late.drop()
		return
	}
	w.head++
}

// refill advances the cursor until an event is executable.
func (w *timingWheel) refill() {
	for w.head == len(w.ready) && len(w.late) == 0 {
		if !w.advanceOnce() {
			panic("sim: refill on an empty event queue")
		}
	}
}

// advanceOnce moves the cursor to the next occupied slot: draining a
// level-0 slot into ready, cascading a higher-level bucket one level
// down, or — when every wheel is empty — jumping to the overflow heap's
// window and refilling from it. Returns false when nothing is pending.
//
// Level 0 slides, so its scan has two parts: slots above the cursor's
// index hold ticks in the cursor's wheelSlots-tick block ("ahead"), wrapped
// slots hold ticks just across the next block boundary. A cascade due at
// an aligned boundary must win against a wrapped slot at or after that
// boundary — the cascaded bucket's events merge into the very same
// sliding slots — which is what the tb/ws comparison decides.
func (w *timingWheel) advanceOnce() bool {
	// Ahead part of sliding level 0: strictly increasing ticks up to the
	// next block boundary. Nothing at any higher level can precede these.
	if idx, ok := w.scan(0, w.cur&wheelSlotMask+1); ok {
		w.cur = w.cur&^wheelSlotMask | idx
		w.drainSlot(idx)
		return true
	}
	// Wrapped part: the earliest remaining level-0 tick, if any, lives at
	// boundary + idx.
	boundary := (w.cur &^ wheelSlotMask) + wheelSlots
	tb, okB := uint64(0), false
	if idx, ok := w.scan(0, 0); ok {
		tb, okB = boundary+idx, true
	}
	// The lowest level with an occupied bucket decides the next cascade;
	// its window start ws can only grow with the level, so the first hit
	// is the earliest. Cascade when it is due at or before the wrapped
	// slot (equal means the bucket's events share the slot's block and
	// must merge in before the slot drains).
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := lvl * wheelLevelBits
		idx, ok := w.scan(lvl, w.cur>>shift&wheelSlotMask+1)
		if !ok {
			continue
		}
		ws := w.cur&^(1<<(shift+wheelLevelBits)-1) | idx<<shift
		if okB && tb < ws {
			break
		}
		w.cur = ws
		w.cascade(lvl, idx)
		w.drainCurSlot()
		return true
	}
	if okB {
		w.cur = tb
		w.drainSlot(tb & wheelSlotMask)
		return true
	}
	// Rollover: wheels are empty. Jump the cursor to the start of the
	// overflow minimum's top-level window and pull in every overflow
	// event that window now covers.
	if len(w.overflow) == 0 {
		return false
	}
	w.cur = tickOf(w.overflow[0].at) &^ (1<<wheelSpanBits - 1)
	for len(w.overflow) > 0 && tickOf(w.overflow[0].at)^w.cur < 1<<wheelSpanBits {
		w.place(w.overflow[0])
		w.overflow.drop()
	}
	w.drainCurSlot()
	return true
}

// drainCurSlot drains the level-0 slot at the cursor's own index if a
// prior placement left events there (tick == cur, possible only right
// after an aligned cursor jump); the forward scans would otherwise skip
// it.
func (w *timingWheel) drainCurSlot() {
	idx := w.cur & wheelSlotMask
	if w.occ[0][idx>>6]&(1<<(idx&63)) != 0 {
		c := w.take(0, idx)
		for blk, left := c.head, c.n; left > 0; blk, left = blk.next, left-blockEvents {
			for i := range blk.evs[:min(left, blockEvents)] {
				w.late.push(blk.evs[i])
			}
		}
		w.release(c)
	}
}

// drainSlot moves level-0 slot idx — the cursor's own tick — into ready
// as one sorted batch. The frontier is empty here (refill only advances
// when it is), so the batch replaces it wholesale. The slot's blocks go
// back to the free list, and a warmed-up wheel never allocates.
func (w *timingWheel) drainSlot(idx uint64) {
	c := w.take(0, idx)
	w.ready, w.head = sortSlot(w.ready[:0], c), 0
	w.release(c)
}

// cascade re-places every event of bucket (lvl, idx) one level down. Each
// block goes back to the free list as soon as its events are placed, so a
// cascade holds at most one block more than its events fill.
func (w *timingWheel) cascade(lvl int, idx uint64) {
	c := w.take(lvl, idx)
	for blk, left := c.head, c.n; left > 0; left -= blockEvents {
		next := blk.next
		for i := range blk.evs[:min(left, blockEvents)] {
			w.place(blk.evs[i])
		}
		blk.next = w.free
		w.free = blk
		blk = next
	}
}

// take detaches bucket (lvl, idx) for draining and clears its occupancy.
func (w *timingWheel) take(lvl int, idx uint64) chain {
	w.occ[lvl][idx>>6] &^= 1 << (idx & 63)
	c := w.bucket[lvl][idx]
	w.bucket[lvl][idx] = chain{}
	return c
}

// scan returns the first occupied slot index >= from at the given level.
func (w *timingWheel) scan(lvl int, from uint64) (uint64, bool) {
	for from < wheelSlots {
		word := from >> 6
		if m := w.occ[lvl][word] &^ (1<<(from&63) - 1); m != 0 {
			return word<<6 | uint64(bits.TrailingZeros64(m)), true
		}
		from = (word + 1) << 6
	}
	return 0, false
}

// Drain sorting: slots up to insertionSortMax events are insertion-sorted;
// larger ones are first split into subTicks runs by time (see sortSlot).
const (
	insertionSortMax = 32
	subTickBits      = 4
	subTicks         = 1 << subTickBits
)

// sortSlot returns dst holding the events of one level-0 slot, the chain
// c, in (at, rank) order, copying each event out of the chain once. Up to
// insertionSortMax events are insertion-sorted straight out of the chain.
// A larger slot (35% of a loaded k=16 fabric's events sit in slots of
// 33–63) is copied as a counting sort on the top subTickBits of the
// in-tick offset: that leaves subTicks runs, in order relative to each
// other, of a handful of events each. A same-instant flood lands in one
// run and costs the heapsort it always did.
func sortSlot(dst []event, c chain) []event {
	dst = slices.Grow(dst, c.n)[:c.n]
	if c.n <= insertionSortMax {
		j := 0
		for blk, left := c.head, c.n; left > 0; blk, left = blk.next, left-blockEvents {
			for i := range blk.evs[:min(left, blockEvents)] {
				ev := &blk.evs[i]
				k := j
				for k > 0 && eventBefore(ev, &dst[k-1]) {
					dst[k] = dst[k-1]
					k--
				}
				dst[k] = *ev
				j++
			}
		}
		return dst
	}
	var run [subTicks]int // counts, then run ends, then (after the scatter) run starts
	for blk, left := c.head, c.n; left > 0; blk, left = blk.next, left-blockEvents {
		for i := range blk.evs[:min(left, blockEvents)] {
			run[subTick(blk.evs[i].at)]++
		}
	}
	sum := 0
	for k := range run {
		sum += run[k]
		run[k] = sum
	}
	for blk, left := c.head, c.n; left > 0; blk, left = blk.next, left-blockEvents {
		for i := range blk.evs[:min(left, blockEvents)] {
			k := subTick(blk.evs[i].at)
			run[k]--
			dst[run[k]] = blk.evs[i]
		}
	}
	for k, start := range run {
		end := len(dst)
		if k+1 < subTicks {
			end = run[k+1]
		}
		sortEvents(dst[start:end])
	}
	return dst
}

// subTick maps a time to its sub-tick run: the top subTickBits of its
// offset within the tick.
func subTick(at Time) uint64 {
	return uint64(at) >> (wheelTickShift - subTickBits) & (subTicks - 1)
}

// sortEvents orders a drained slot by (at, rank): insertion sort for the
// typical handful of events, in-place heapsort for pathological same-tick
// floods. Both are deterministic — (at, rank) is a total order, so the
// sorted sequence is unique regardless of algorithm.
func sortEvents(evs []event) {
	if len(evs) <= insertionSortMax {
		for i := 1; i < len(evs); i++ {
			ev := evs[i]
			j := i
			for j > 0 && eventBefore(&ev, &evs[j-1]) {
				evs[j] = evs[j-1]
				j--
			}
			evs[j] = ev
		}
		return
	}
	// Heapsort: build a max-heap, then repeatedly swap the max to the
	// shrinking tail.
	for i := len(evs)/2 - 1; i >= 0; i-- {
		siftDownMax(evs, i, len(evs))
	}
	for end := len(evs) - 1; end > 0; end-- {
		evs[0], evs[end] = evs[end], evs[0]
		siftDownMax(evs, 0, end)
	}
}

// siftDownMax restores the max-heap property for evs[:n] at root i.
func siftDownMax(evs []event, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && eventBefore(&evs[l], &evs[r]) {
			m = r
		}
		if !eventBefore(&evs[i], &evs[m]) {
			return
		}
		evs[i], evs[m] = evs[m], evs[i]
		i = m
	}
}

// reset empties the wheel while keeping every block chunk and the
// frontier's array warm, so a reused engine schedules without allocating.
// Unlike the steady-state paths, reset zeroes stale events — in the
// frontier up to its capacity and in every block, drained ones included:
// nothing scheduled in the previous run may keep a handler alive across
// trials.
func (w *timingWheel) reset() {
	w.cur, w.size = 0, 0
	clearEvents(w.ready[:cap(w.ready)])
	w.ready, w.head = w.ready[:0], 0
	clearEvents(w.late)
	w.late = w.late[:0]
	clearEvents(w.overflow)
	w.overflow = w.overflow[:0]
	for lvl := range w.bucket {
		clear(w.bucket[lvl][:])
		clear(w.occ[lvl][:])
	}
	w.free = nil
	for i := len(w.chunks) - 1; i >= 0; i-- {
		clear(w.chunks[i][:])
		w.thread(w.chunks[i])
	}
}

// clearEvents zeroes a slice of events, dropping handler references.
func clearEvents(evs []event) {
	for i := range evs {
		evs[i] = event{}
	}
}
