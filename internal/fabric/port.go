package fabric

import (
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// outPort event kinds (sim.Handler dispatch).
const (
	portTxDone  uint8 = iota // last byte left a transmitter somebody is waiting for
	portDeliver              // last byte arrived at the peer
	portPFC                  // a PFC frame arrived at the peer; arg 1 = pause
)

// outPort serializes packets onto one unidirectional link. Both switch
// output ports and NIC egress ports are outPorts; they differ only in who
// supplies the next packet (sw or nic).
//
// Timing model: a packet occupies the transmitter for Wire×rate
// picoseconds (serialization), then arrives at the peer after the
// propagation delay. Store-and-forward: the next hop sees the packet only
// after its last byte arrives.
//
// One engine event per packet-hop. Starting a transmission (kick) knows
// both instants that follow from it, so it schedules the arrival at
// now+ser+prop right away — portDeliver on an interior link, the
// cross-shard channel on a boundary link, the same call site either way —
// and merely records the serialization end as (busyUntil, txRank). The
// port is serializing iff the engine's position in its total order,
// (Now(), Rank()), is before (busyUntil, txRank); no flag is kept and no
// event marks the end of an idle port's serialization. A portTxDone event
// is scheduled at exactly that position — at most one pending — only
// when somebody will want the transmitter then: right after a dequeue
// that left the owner backlogged, or when kick finds the port serializing.
// Every dequeue therefore happens at the same (time, rank) as if each
// serialization end were an event, which keeps pause, link-down,
// rate-change and round-robin behaviour independent of the elision.
//
// kick draws two ranks from the node's clock per transmission, arrival
// first, then serialization end, used or not: an unused draw is what keeps
// the clock sequence — and with it the (at, rank) of every other event the
// node schedules — the same whether or not the tx-done event exists, and
// the same under every partitioning.
//
// The packet riding each arrival lives in the port's in-flight FIFO rather
// than a closure: serialization is strictly ordered and the propagation
// delay is constant per link, so packets arrive in exactly the order they
// were queued — popping the head at each portDeliver event is equivalent
// to capturing the packet per event, without the capture.
//
// Fault injection happens at the arrival end of the link: random in-flight
// loss, the receiving port's CRC check (corruption), and downed links all
// resolve at portDeliver, where the packet either dies (released to the
// pool, counted in Stats) or is handed on. Keeping every pushed
// packet paired with exactly one portDeliver event — even across link
// flaps — is what keeps the in-flight FIFO and the event queue in sync.
type outPort struct {
	eng  *sim.Engine // the owning node's shard engine
	clk  *sim.Clock  // the owning node's rank clock
	part *partition  // stats, injected, and the pool faults release into
	rate Rate        // configured rate; curRate applies degradation
	prop sim.Duration

	// curRate is the effective serialization rate: rate normally, scaled
	// while a fault.ChangeRate degradation phase is active.
	curRate Rate

	// curLoss is the effective random loss rate: the fault link's base
	// rate normally, moved by fault.ChangeLoss while a loss burst is
	// active. Zero when flt is nil.
	curLoss float64

	// flt is this direction's fault state, nil on healthy links.
	flt *fault.Link

	// Exactly one of sw and nic is set: the switch output or host NIC this
	// port transmits for, which supplies the next packet (nextPacket) when
	// the port is idle and unpaused. A NIC port is where packets enter
	// the fabric and are counted in partition.injected.
	sw  *swOut
	nic *NIC
	// peer is the node at the far end of the link and peerPort its port
	// index for this link, both resolved at build time: arrivals call
	// peer.receive(pkt, peerPort) and PFC frames peer.pfcFrame(peerPort, …)
	// directly. Boundary ports carry them too, but their arrivals ride
	// xchan, which holds its own copy.
	peer     node
	peerPort int
	// xchan, when non-nil, marks a boundary port: the link's receiver
	// lives on another shard, so kick pushes the arrival into this
	// cross-shard channel instead of scheduling portDeliver. Pushing at
	// serialization start is what widens the group's lookahead by the
	// minimum frame serialization (see Network.computeLookahead).
	xchan *linkChan

	// inflight holds interior packets between transmission start and
	// arrival at the peer: the tail is serializing, earlier entries are
	// propagating. Boundary packets live in xchan instead.
	inflight packet.Queue

	// (busyUntil, txRank) is where the current — or most recent —
	// serialization ends in the engine's total order; txPending marks a
	// portTxDone event queued at that position.
	busyUntil sim.Time
	txRank    uint64
	txPending bool

	paused bool // PFC X-OFF received from downstream
	down   bool // link failed (fault.ChangeDown); nothing transmits
}

// serializing reports whether the transmitter is still occupied: whether
// the serialization end lies ahead of the executing event in (at, rank)
// order.
func (o *outPort) serializing() bool {
	now := o.eng.Now()
	return now < o.busyUntil || now == o.busyUntil && o.eng.Rank() < o.txRank
}

// kick starts a transmission if the port is idle, unpaused, up, and a
// packet is available. While the owner stays backlogged each serialization
// end kicks again, so one kick keeps the port busy as long as the source
// has packets.
func (o *outPort) kick() {
	if o.paused || o.down {
		return // resume and link-up kick again
	}
	if o.serializing() {
		o.wantTxDone()
		return
	}
	var pkt *packet.Packet
	var backlog bool
	if o.nic == nil {
		if pkt = o.sw.nextPacket(); pkt == nil {
			return
		}
		backlog = o.sw.queued != 0
	} else {
		if pkt = o.nic.nextPacket(); pkt == nil {
			return
		}
		o.part.injected++
		// With no source attached and no control queued, the next
		// nextPacket would pop, scan, reap and arm nothing; anything that
		// changes that (SendControl, AttachSource, Wake) kicks. Any
		// attached source, done or not, keeps the serialization end an
		// event, so reap and pacing-timer instants do not move.
		backlog = !o.nic.ctrl.Empty() || len(o.nic.sources) > 0
	}
	o.start(pkt, backlog)
}

// start begins serializing pkt on the idle, unpaused, up port; backlog
// reports whether the owner has more to send, which makes the
// serialization end an event.
func (o *outPort) start(pkt *packet.Packet, backlog bool) {
	o.busyUntil = o.eng.Now().Add(o.curRate.Serialize(int(pkt.Wire)))
	// The packet keeps this timing whatever happens next: a rate change
	// applies from the next kick (see applyChange), a PFC pause lets the
	// current serialization complete, and a link death resolves at
	// arrival.
	arrive := o.busyUntil.Add(o.prop)
	if o.xchan != nil {
		o.xchan.send(arrive, pkt)
	} else {
		o.inflight.Push(pkt)
		o.eng.ScheduleRanked(arrive, o.clk.Next(), o, portDeliver, 0)
	}
	o.txRank = o.clk.Next()
	if backlog {
		o.wantTxDone()
	}
}

// wantTxDone makes the pending serialization end an event, so that it
// kicks the port; at most one is queued per serialization.
func (o *outPort) wantTxDone() {
	if !o.txPending {
		o.txPending = true
		o.eng.ScheduleRanked(o.busyUntil, o.txRank, o, portTxDone, 0)
	}
}

// HandleEvent implements sim.Handler: port timing events.
func (o *outPort) HandleEvent(kind uint8, arg uint64) {
	switch kind {
	case portTxDone:
		o.txPending = false
		o.kick()
	case portDeliver:
		pkt := o.inflight.Pop()
		// Fault resolution at the receiving end. A downed link kills the
		// packets that were in flight when it failed; then the in-flight
		// loss draw; then the CRC check.
		if o.down {
			o.die(pkt, &o.part.stats.FaultDrops)
			return
		}
		if o.flt != nil {
			if o.flt.Drop(o.curLoss) {
				o.die(pkt, &o.part.stats.FaultDrops)
				return
			}
			if o.flt.DropCorrupt() {
				o.die(pkt, &o.part.stats.Corrupted)
				return
			}
		}
		o.peer.receive(pkt, o.peerPort)
	case portPFC:
		o.peer.pfcFrame(o.peerPort, arg != 0)
	}
}

// sendPFC sends a PFC frame to the peer — a switch pausing or resuming the
// neighbor that feeds the input this port faces. PFC frames are link-local
// flow control below the packet queues: they are modelled as arriving one
// control-frame serialization plus one propagation delay after generation,
// without competing for queue space. The configured headroom absorbs the
// data still in flight during that delay plus the packet being
// serialized. A frame crossing a shard boundary rides the link's channel;
// either way it is ranked under the generating switch's clock, so serial
// and sharded runs order it identically.
//
// Folding the ControlFrame serialization into the arrival delay here is
// what keeps PFC fabrics on the widened prop+serMin lookahead: every
// frame that can cross a cut link — data, ACK family, PFC — is due at
// least serMin+prop after the instant it is pushed, so computeLookahead
// needs no PFC special case.
func (o *outPort) sendPFC(pause bool) {
	delay := o.rate.Serialize(packet.ControlFrame) + o.prop
	if o.xchan != nil {
		o.xchan.sendPFC(o.eng.Now().Add(delay), pause)
		return
	}
	var arg uint64
	if pause {
		arg = 1
	}
	o.eng.AfterEventFrom(o.clk, delay, o, portPFC, arg)
}

// die is a fault death site: the packet leaves the simulation here, so it
// is counted in its Stats field, which Census reads, and released back to
// the pool — dropping without releasing would leak, releasing twice
// panics.
func (o *outPort) die(pkt *packet.Packet, stat *uint64) {
	*stat++
	o.part.pool.Release(pkt)
}

// applyChange executes one scheduled fault transition on this link
// direction, keeping the network's count of currently-down directions
// (which gates the ECMP down-state scan) in step.
func (o *outPort) applyChange(ch fault.Change) {
	switch ch.Kind {
	case fault.ChangeDown:
		if !o.down {
			o.down = true
			o.part.downPorts++
		}
	case fault.ChangeUp:
		if o.down {
			o.down = false
			o.part.downPorts--
		}
		o.kick()
	case fault.ChangeRate:
		if ch.Factor == 1 {
			o.curRate = o.rate
		} else {
			// ps/byte grows as bandwidth shrinks. The packet currently
			// serializing keeps its old timing; the next kick sees the new
			// rate.
			o.curRate = Rate(float64(o.rate)/ch.Factor + 0.5)
		}
	case fault.ChangeLoss:
		// A loss burst begins or ends; the restoring entry carries the
		// base rate, so no special case is needed here.
		o.curLoss = ch.Factor
	}
}

// reset returns the port to its just-wired state for a new run (the engine
// is back at position zero): idle, unpaused, up, at the configured rate
// and base loss rate, with the in-flight window empty. The fault-link
// pointer is reassigned by Network.Reset before the per-node resets run,
// so reading flt here sees the fresh model.
func (o *outPort) reset() {
	o.curRate = o.rate
	o.curLoss = 0
	if o.flt != nil {
		o.curLoss = o.flt.Loss
	}
	o.inflight.Reset()
	o.busyUntil, o.txRank, o.txPending = 0, 0, false
	o.paused, o.down = false, false
}

// pause handles a PFC X-OFF: the packet currently being serialized
// completes (that in-flight data is what the headroom absorbs), then the
// port stays silent until resume.
func (o *outPort) pause() { o.paused = true }

// resume handles a PFC X-ON.
func (o *outPort) resume() {
	if !o.paused {
		return
	}
	o.paused = false
	o.kick()
}
