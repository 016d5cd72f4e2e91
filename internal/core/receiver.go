package core

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/transport"
)

// Receiver is the IRN receiver of §3.1: it keeps out-of-order packets
// (tracking them in a BDP-sized recovery.Reorder window), sends a cumulative ACK for every
// in-order arrival, and on every out-of-order arrival sends a NACK
// carrying both the cumulative acknowledgement and the sequence number
// that triggered it.
//
// The receiver behaves identically across the §4.3 sender-side recovery
// ablations (go-back-N, no-SACK): those change only what the sender does
// with the NACKs. The RoCE-style receiver that discards out-of-order
// packets lives in internal/rocev2.
//
// It is iWARP's receiver too (tcpstack.NewReceiver, with the socket
// buffer as BDPCap): IRN's receiver is TCP's SACK receiver cut down to one
// SACK block, and its NACK carries what TCP's duplicate ACK does, the
// cumulative ACK and the segment that triggered it, so the Sender under
// RecoveryTCP reads it as one.
//
// It also hosts the DCQCN notification point: CE-marked arrivals generate
// CNPs, rate-limited to one per 50 µs per flow.
type Receiver struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params

	win   recovery.Reorder
	total int

	cnp transport.CNPGenerator

	done transport.Completer

	// Stats.
	Acks, Nacks, CNPs, Duplicates uint64
}

// NewReceiver builds an IRN receiver for flow. done (may be nil) is
// notified exactly once, when every packet of the message has arrived;
// taking an interface instead of a closure keeps flow start allocation-
// free on the launcher's hot path.
func NewReceiver(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) *Receiver {
	r := new(Receiver)
	r.Init(ep, flow, p, done, nil)
	return r
}

// Init is NewReceiver in place, with the arrival bitmap's words carved
// from words (nil: the heap); see Sender.Init. Init overwrites every
// field, so a receiver may be Init-ed again for another flow once done
// has been told its flow completed: nothing touches the receiver after
// FlowDone returns, and Retired then answers the old flow's late
// duplicates in its place.
func (r *Receiver) Init(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer, words *slab.Slab[uint64]) {
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	run := words.Reuse(r.win.Words(), windowWords(flow.Pkts, p))
	*r = Receiver{
		ep:    ep,
		pool:  ep.Pool(),
		flow:  flow,
		p:     p,
		total: flow.Pkts,
		done:  done,
	}
	r.win.Init(run)
}

// Retired implements transport.Retirer.
func (r *Receiver) Retired() transport.Retired { return transport.NewRetired(r.flow, r.cnp) }

// Received reports distinct data packets received so far.
func (r *Receiver) Received() int { return r.win.Received() }

// Expected returns the next expected sequence number.
func (r *Receiver) Expected() packet.PSN { return r.win.Expected() }

// HandleData implements transport.Sink.
func (r *Receiver) HandleData(pkt *packet.Packet, now sim.Time) {
	// DCQCN notification point.
	if pkt.CE && r.cnp.OnMarked(now) {
		r.CNPs++
		r.ep.SendControl(r.pool.NewCNP(pkt.Flow, r.flow.Dst, r.flow.Src))
	}

	kind, fresh := r.win.Arrive(pkt.PSN)
	switch kind {
	case recovery.Duplicate:
		// A spurious or crossed retransmission of a delivered packet.
		// Re-ACK so the sender advances.
		r.Duplicates++
		r.sendAck(pkt)

	case recovery.InOrder:
		r.sendAck(pkt)
		r.maybeComplete(now)

	case recovery.OutOfOrder:
		if !fresh {
			r.Duplicates++
		}
		// "Upon every out-of-order packet arrival, an IRN receiver
		// sends a NACK" (§3.1).
		r.sendNack(pkt)
		r.maybeComplete(now)

	case recovery.Outside:
		// Beyond the tracking window: only possible when the sender
		// violates BDP-FC; drop and NACK to resynchronize.
		r.sendNack(pkt)
	}
}

// sendAck emits a cumulative ACK echoing the triggering packet's
// timestamp and congestion marking.
func (r *Receiver) sendAck(trigger *packet.Packet) {
	ack := r.pool.NewAck(r.flow.ID, r.flow.Dst, r.flow.Src, r.win.Expected())
	ack.SentAt = trigger.SentAt
	ack.ECNEcho = trigger.CE
	r.Acks++
	r.ep.SendControl(ack)
}

// sendNack emits an IRN NACK: cumulative ack plus the PSN that triggered
// it (the simplified SACK).
func (r *Receiver) sendNack(trigger *packet.Packet) {
	n := r.pool.NewNack(r.flow.ID, r.flow.Dst, r.flow.Src, r.win.Expected(), trigger.PSN)
	n.SentAt = trigger.SentAt
	n.ECNEcho = trigger.CE
	r.Nacks++
	r.ep.SendControl(n)
}

// maybeComplete fires the completion callback when the whole message has
// arrived.
func (r *Receiver) maybeComplete(now sim.Time) {
	if r.flow.Finished || r.win.Received() < r.total {
		return
	}
	r.flow.Finished = true
	r.flow.Finish = now
	if r.done != nil {
		r.done.FlowDone(r.flow, now)
	}
}
