package fabric

import (
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// outPort event kinds (sim.Handler dispatch).
const (
	portTxDone  uint8 = iota // last byte left the transmitter
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
// The port is a sim.Handler: serialization-done and arrival are typed
// events, so steady-state forwarding schedules nothing on the heap. The
// packet riding each event lives in the port's in-flight FIFO rather than
// a closure: serialization is strictly ordered and the propagation delay
// is constant per link, so packets arrive in exactly the order they were
// queued — popping the ring head at each portDeliver event is equivalent
// to capturing the packet per event, without the capture.
//
// Fault injection happens at the arrival end of the link: random in-flight
// loss, the receiving port's CRC check (corruption), and downed links all
// resolve at portDeliver, where the packet either dies (released to the
// pool, counted in Stats/Census) or is handed on. Keeping every pushed
// packet paired with exactly one portDeliver event — even across link
// flaps — is what keeps the in-flight ring and the event queue in sync.
type outPort struct {
	eng  *sim.Engine // the owning node's shard engine
	clk  *sim.Clock  // the owning node's rank clock
	part *partition  // stats, census, and the pool faults release into
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
	// the fabric and are counted in Census.Injected.
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
	// lives on another shard, and serialization *start* pushes the packet
	// into this cross-shard channel — due one serialization plus one
	// propagation delay out — instead of scheduling portDeliver. The
	// early push is what widens the group's lookahead by the minimum
	// frame serialization (see Network.computeLookahead); the arrival
	// instant is identical to the interior path's.
	xchan *linkChan

	// inflight holds interior packets between transmission start and
	// arrival at the peer: the tail is serializing, earlier entries are
	// propagating. Boundary packets live in xchan instead.
	inflight pktRing

	// serRank is the arrival rank of the packet currently serializing on
	// an interior port, drawn at serialization start. Both paths draw the
	// arrival rank at kick — boundary ports inside xchan.send, interior
	// ports here — so a node's clock sequence is identical under every
	// partitioning; portTxDone consumes it before the next kick overwrites
	// it (at most one packet serializes per port at a time).
	serRank uint64

	busy   bool
	paused bool // PFC X-OFF received from downstream
	down   bool // link failed (fault.ChangeDown); nothing transmits
}

// kick starts a transmission if the port is idle, unpaused, up, and a
// packet is available. It reschedules itself after each completed
// serialization, so one kick keeps the port busy as long as the source has
// packets.
func (o *outPort) kick() {
	if o.busy || o.paused || o.down {
		return
	}
	var pkt *packet.Packet
	if o.nic == nil {
		if pkt = o.sw.nextPacket(); pkt == nil {
			return
		}
	} else {
		if pkt = o.nic.nextPacket(); pkt == nil {
			return
		}
		o.part.census.Injected++
	}
	o.busy = true
	ser := o.curRate.Serialize(pkt.Wire)
	// The arrival rank is drawn first, then the txdone rank — on both
	// paths, so the node's clock sequence is partitioning-invariant.
	if o.xchan != nil {
		// Boundary link: hand the packet to the cross-shard channel now,
		// due at serialization end plus one propagation delay — the same
		// arrival instant, same rank draw, as the interior path. A rate
		// change mid-serialization cannot invalidate the due time (the
		// packet being serialized keeps its timing, see applyChange), a
		// PFC pause lets the current serialization complete, and a link
		// death resolves consumer-side at arrival (linkChan.HandleEvent).
		o.xchan.send(o.eng.Now().Add(ser+o.prop), pkt)
	} else {
		o.serRank = o.clk.Next()
		o.inflight.push(pkt)
	}
	o.eng.AfterEventFrom(o.clk, ser, o, portTxDone, 0)
}

// HandleEvent implements sim.Handler: port timing events.
func (o *outPort) HandleEvent(kind uint8, arg uint64) {
	switch kind {
	case portTxDone:
		o.busy = false
		if o.xchan == nil {
			// Arrival at the peer is one propagation delay after the
			// last byte leaves; the rank was drawn at serialization
			// start (kick). Boundary ports already pushed their packet
			// into the channel at kick.
			o.eng.ScheduleRanked(o.eng.Now().Add(o.prop), o.serRank, o, portDeliver, 0)
		}
		o.kick()
	case portDeliver:
		pkt := o.inflight.pop()
		// Fault resolution at the receiving end. A downed link kills the
		// packets that were in flight when it failed; then the in-flight
		// loss draw; then the CRC check.
		if o.down {
			o.die(pkt, &o.part.stats.FaultDrops, &o.part.census.FaultDrops)
			return
		}
		if o.flt != nil {
			if o.flt.Drop(o.curLoss) {
				o.die(pkt, &o.part.stats.FaultDrops, &o.part.census.FaultDrops)
				return
			}
			if o.flt.DropCorrupt() {
				o.die(pkt, &o.part.stats.Corrupted, &o.part.census.Corrupted)
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
// is counted (stat + census must stay paired, or the conservation
// invariant breaks) and released back to the pool — dropping without
// releasing would leak, releasing twice panics.
func (o *outPort) die(pkt *packet.Packet, stat, census *uint64) {
	*stat++
	*census++
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

// reset returns the port to its just-wired state for a new run: idle,
// unpaused, up, at the configured rate and base loss rate, with the
// in-flight window empty. The fault-link pointer is reassigned by
// Network.Reset before the per-node resets run, so reading flt here sees
// the fresh model.
func (o *outPort) reset() {
	o.curRate = o.rate
	o.curLoss = 0
	if o.flt != nil {
		o.curLoss = o.flt.Loss
	}
	o.inflight.reset()
	o.busy, o.paused, o.down = false, false, false
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

// pktRing is a small FIFO ring of packets that grows on demand and never
// allocates afterwards. A link holds at most ceil(prop/serialization)+1
// packets in flight, so rings stay tiny; the zero value is ready for use.
// Capacity is always a power of two so indexing is a bitmask — this ring
// is touched twice per packet per hop, where an integer modulo is
// measurable.
type pktRing struct {
	buf  []*packet.Packet // len(buf) is 0 or a power of two
	head int
	n    int
}

// push appends p to the tail.
func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		grown := make([]*packet.Packet, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes and returns the head, or nil if empty.
func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// reset empties the ring for a new run, dropping packet references but
// keeping the array warm.
func (r *pktRing) reset() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = nil
	}
	r.head, r.n = 0, 0
}
