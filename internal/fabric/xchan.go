package fabric

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// linkChan is the cross-shard channel of one boundary link direction: the
// deterministic replacement for direct event scheduling when a link's
// transmitter and receiver live on different shard engines. The producer
// (the transmitting port's shard) appends occurrences during its safe
// window; the coordinator drains them into the consumer engine at the
// next barrier, re-using the rank each occurrence drew — from the
// producing node's clock, at exactly the call site where serial execution
// would have drawn it — so the merged order is the serial order, bit for
// bit.
//
// Two occurrence kinds share the channel: packet arrivals, pushed at
// serialization *start* and due one serialization plus one propagation
// delay out (the early push is what lets the lookahead include the
// minimum frame serialization — see Network.computeLookahead), and PFC
// frames, pushed at generation and due one ControlFrame serialization
// plus one propagation delay out — at least serMin+prop, like every
// other frame, which is what keeps PFC fabrics on the widened lookahead.
//
// Occurrence pushes are *nearly* sorted by (at, rank) — ranks are one
// clock's sequence, and due times grow with push time — with one
// exception: a PFC frame generated while a data packet is serializing on
// the same direction is pushed after it but may be due before it (the
// frame bypasses the packet queue, and its 64-byte serialization is far
// shorter than a data packet's). The consumer therefore does not pop a
// FIFO head;
// each drained occurrence's engine event carries the occurrence's
// absolute index as its argument, so firing order and push order are
// free to differ.
//
// Concurrency: inbox is touched by the producer shard during windows and
// by the coordinator at barriers; fifo and delivered by the consumer
// shard during windows and the coordinator at barriers. The window
// barrier's channel operations order every access; nothing here needs a
// lock.
type linkChan struct {
	dst    node        // receiving node
	inPort int         // dst's port index for this link
	eng    *sim.Engine // consumer shard's engine
	clk    *sim.Clock  // producing node's clock
	net    *Network    // owning fabric, for the producer window clamp

	// part is the consumer partition, whose drain count the channel
	// advances. A channel never kills a packet: a fault model requires a
	// single-shard fabric, which has no boundary channels.
	part *partition

	// prod is the producer partition; the first push of a window
	// registers the channel on its dirty list so the barrier drain
	// visits only channels that actually carry occurrences.
	prod   *partition
	queued bool // on prod's dirty list

	inbox []chanEntry // produced this window, not yet drained

	// drained holds occurrences whose engine events are scheduled but
	// have not yet fired; base is the absolute index of drained[0] (the
	// count of entries compacted away), pending the live entries, and
	// prefix the consumed entries at the head. Under sustained traffic a
	// channel is never fully idle, so compaction cannot wait for
	// pending == 0: each drain slides the live tail over the consumed
	// prefix (amortized O(1) per occurrence — in-flight entries number
	// about one link BDP), keeping the array at in-flight size instead
	// of growing with every packet that ever crossed.
	drained []chanEntry
	base    uint64
	prefix  int
	pending int

	batch []sim.RankedEvent // drain scratch, reused across barriers

	sent      int // data packets pushed (producer-owned)
	delivered int // data packets handed to dst (consumer-owned)
}

// chanEntry is one cross-shard occurrence. A zero entry marks a consumed
// slot in drained; at == 0 is the discriminator, which is unambiguous
// because every occurrence is due at least one positive propagation
// delay after a non-negative push instant.
type chanEntry struct {
	at    sim.Time
	rank  uint64
	pkt   *packet.Packet // nil → PFC frame
	pause bool
}

// mark registers the channel on the producer partition's dirty list on
// its first push since the last drain, and clamps the producer's current
// safe window: the occurrence arrives at the consumer at time at, and
// nothing the consumer does with it can influence the producer earlier
// than at plus the fabric's minimum cross-shard latency (one propagation
// plus the smallest frame serialization — the window slack). An
// adaptively widened window (see sim.RunWindows) must therefore end by
// at + slack, or the bounce-back could land in this shard's executed
// past. Runs on the producing shard.
func (c *linkChan) mark(at sim.Time) {
	if !c.queued {
		c.queued = true
		c.prod.dirty = append(c.prod.dirty, c)
	}
	c.prod.eng.LimitWindow(at.Add(c.net.slack))
}

// send pushes a packet arrival due at. Called by the producing port at
// serialization start, where an interior port schedules portDeliver.
func (c *linkChan) send(at sim.Time, pkt *packet.Packet) {
	c.mark(at)
	c.inbox = append(c.inbox, chanEntry{at: at, rank: c.clk.Next(), pkt: pkt})
	c.sent++
}

// sendPFC pushes a PFC frame due at.
func (c *linkChan) sendPFC(at sim.Time, pause bool) {
	c.mark(at)
	c.inbox = append(c.inbox, chanEntry{at: at, rank: c.clk.Next(), pause: pause})
}

// drain moves pending occurrences into the consumer engine as one batch
// insert, payloads kept in the channel's drained array with each event
// carrying its occurrence's absolute index. Runs on the coordinator at a
// window barrier.
func (c *linkChan) drain() {
	c.queued = false
	if c.prefix > 0 {
		// Slide live entries over the consumed prefix. Scheduled events
		// reference absolute indexes, so advancing base by the same
		// amount keeps every outstanding arg resolving to its entry.
		n := copy(c.drained, c.drained[c.prefix:])
		for i := n; i < len(c.drained); i++ {
			c.drained[i] = chanEntry{}
		}
		c.drained = c.drained[:n]
		c.base += uint64(c.prefix)
		c.prefix = 0
	}
	c.batch = c.batch[:0]
	for i := range c.inbox {
		e := c.inbox[i]
		c.inbox[i] = chanEntry{}
		c.batch = append(c.batch, sim.RankedEvent{
			At: e.at, Rank: e.rank, Arg: c.base + uint64(len(c.drained)),
		})
		c.drained = append(c.drained, e)
	}
	c.inbox = c.inbox[:0]
	c.pending += len(c.batch)
	c.part.drained += uint64(len(c.batch))
	c.eng.ScheduleRankedBatch(c, c.batch)
}

// HandleEvent implements sim.Handler: one drained occurrence coming due
// on the consumer engine, identified by its absolute index.
func (c *linkChan) HandleEvent(_ uint8, arg uint64) {
	i := int(arg - c.base)
	e := c.drained[i]
	c.drained[i] = chanEntry{}
	c.pending--
	if c.pending == 0 {
		c.base += uint64(len(c.drained))
		c.drained = c.drained[:0]
		c.prefix = 0
	} else if i == c.prefix {
		for c.prefix < len(c.drained) && c.drained[c.prefix].at == 0 {
			c.prefix++
		}
	}
	if e.pkt == nil {
		c.dst.pfcFrame(c.inPort, e.pause)
		return
	}
	c.delivered++
	c.dst.receive(e.pkt, c.inPort)
}

// resident counts the data packets inside the channel — pushed (at
// serialization start) but not yet handed to the receiving node. They are
// in flight for conservation purposes, exactly like packets riding an
// interior port's in-flight queue: a boundary packet lives here from kick
// to arrival instead. Only meaningful at quiescence.
func (c *linkChan) resident() int { return c.sent - c.delivered }

// reset empties the channel for a new run, dropping packet references but
// keeping the arrays warm.
func (c *linkChan) reset() {
	for i := range c.inbox {
		c.inbox[i] = chanEntry{}
	}
	for i := range c.drained {
		c.drained[i] = chanEntry{}
	}
	c.inbox, c.drained = c.inbox[:0], c.drained[:0]
	c.base, c.prefix, c.pending, c.queued = 0, 0, 0, false
	c.sent, c.delivered = 0, 0
}
