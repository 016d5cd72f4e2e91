// Package rocev2 models the transport of current RoCE NICs (§2.1): an
// Infiniband-style reliable-connected flow with go-back-N loss recovery —
// the receiver discards out-of-order packets and NACKs the expected
// sequence number; the sender rewinds and retransmits everything from
// there — no end-to-end flow control, and optional explicit congestion
// control (DCQCN, Timely).
//
// Following §5.2, the baseline models the extreme case of all Reads: no
// per-packet ACKs flow back for data (so RoCE pays no ACK bandwidth,
// unlike IRN whose results include that overhead). Loss recovery is
// receiver-driven, as it is for RDMA Reads, where the requester is the
// data sink: a gap triggers a NACK, and a stalled transfer triggers a
// timeout NACK that models the requester re-issuing the Read. The paper
// uses a fixed RTOHigh timeout when PFC is off and disables timeouts when
// PFC is on (§4.1); PerPacketAck exists for Timely, which needs RTT
// samples.
//
// RoCE + DCQCN with PFC disabled is exactly Resilient RoCE [33] (§4.5).
package rocev2

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// Params configures a RoCE sender/receiver pair.
type Params struct {
	// MTU is the payload bytes per packet.
	MTU int
	// RTOHigh is the fixed receiver-side timeout that re-requests a
	// stalled transfer (320 µs default, §4.1). Ignored when
	// DisableTimeout is set.
	RTOHigh sim.Duration
	// DisableTimeout turns timeouts off, "to prevent spurious
	// retransmissions" when PFC guarantees losslessness (§4.1).
	DisableTimeout bool
	// PerPacketAck makes the receiver acknowledge every in-order packet.
	// The ACK-free baseline models all-Reads (§5.2); Timely requires RTT
	// samples, so it runs with ACKs enabled.
	PerPacketAck bool
	// ECT marks data packets ECN-capable (enable with DCQCN).
	ECT bool
}

// DefaultParams returns the paper's RoCE configuration.
func DefaultParams(mtu int) Params {
	return Params{MTU: mtu, RTOHigh: 320 * sim.Microsecond}
}

// Sender is the RoCE go-back-N sender. It implements transport.Source.
type Sender struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params
	cc   transport.Controller

	total   int
	cumAck  packet.PSN // highest in-order point reported by the receiver
	nextPSN packet.PSN
	highest packet.PSN // highest PSN ever sent (for retransmit accounting)

	paceUntil sim.Time
	done      bool
	// probe re-sends the final packet if the completion ACK never
	// arrives (it can only be lost when PFC is off).
	probe sim.Timer

	Stats transport.SenderStats
}

// NewSender builds a RoCE sender; ctrl may be nil.
func NewSender(ep transport.Endpoint, flow *transport.Flow, p Params, ctrl transport.Controller) *Sender {
	s := new(Sender)
	s.Init(ep, flow, p, ctrl)
	return s
}

// Init is NewSender in place: s, probe timer included, is one object, so
// a launcher that carves it from a slab starts a flow without touching
// the allocator. s must not be copied afterwards. Init overwrites every
// field, so a finished sender the NIC has reaped may be Init-ed again for
// another flow (see sim.Timer on its queued timer events).
func (s *Sender) Init(ep transport.Endpoint, flow *transport.Flow, p Params, ctrl transport.Controller) {
	if ctrl == nil {
		ctrl = transport.None{}
	}
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	*s = Sender{ep: ep, pool: ep.Pool(), flow: flow, p: p, cc: ctrl, total: flow.Pkts}
	s.probe.Init(ep.Engine(), ep.Clock(), s, senderProbe)
}

// senderProbe is the Sender's only sim.Handler event kind: the completion
// probe timer.
const senderProbe uint8 = 0

// HandleEvent implements sim.Handler (the probe timer).
func (s *Sender) HandleEvent(uint8, uint64) { s.onProbe() }

// onProbe fires when the completion ACK has not arrived long after the
// last packet went out: rewind by one packet so the receiver re-announces
// completion (or NACKs its actual position).
func (s *Sender) onProbe() {
	if s.done || s.p.DisableTimeout {
		return
	}
	if s.nextPSN >= packet.PSN(s.total) && s.total > 0 {
		s.nextPSN = packet.PSN(s.total - 1)
		s.ep.Wake()
	}
}

// Flow implements transport.Source.
func (s *Sender) Flow() *transport.Flow { return s.flow }

// Done implements transport.Source.
func (s *Sender) Done() bool { return s.done }

// HasData implements transport.Source. RoCE has no transport window: the
// sender streams at the congestion-controlled rate until the message is
// sent, then idles awaiting the completion (or a NACK rewind).
func (s *Sender) HasData(now sim.Time) (bool, sim.Time) {
	if s.done {
		return false, 0
	}
	if now < s.paceUntil {
		return false, s.paceUntil
	}
	if s.nextPSN < packet.PSN(s.total) {
		if w := s.cc.WindowPackets(); w > 0 && int(s.nextPSN-s.cumAck) >= w {
			return false, 0
		}
		return true, 0
	}
	return false, 0
}

// NextPacket implements transport.Source.
func (s *Sender) NextPacket(now sim.Time) *packet.Packet {
	if s.done || s.nextPSN >= packet.PSN(s.total) {
		return nil
	}
	psn := s.nextPSN
	s.nextPSN++
	if psn < s.highest {
		s.Stats.Retransmits++
	} else {
		s.highest = psn + 1
	}
	payload := transport.PayloadOf(s.flow.Size, s.p.MTU, int(psn))
	pkt := s.pool.NewData(s.flow.ID, s.flow.Src, s.flow.Dst, psn, payload, int(psn) == s.total-1)
	pkt.ECT = s.p.ECT
	pkt.SentAt = now
	s.Stats.Sent++
	if d := s.cc.SendDelay(int(pkt.Wire)); d > 0 {
		s.paceUntil = now.Add(d)
	}
	if s.nextPSN >= packet.PSN(s.total) && !s.p.DisableTimeout {
		s.probe.Arm(2 * s.p.RTOHigh)
	}
	return pkt
}

// HandleControl implements transport.Source.
func (s *Sender) HandleControl(pkt *packet.Packet, now sim.Time) {
	switch pkt.Type {
	case packet.TypeCNP:
		s.cc.OnCNP(now)
		return
	case packet.TypeAck:
		if pkt.SentAt > 0 {
			newly := 0
			if pkt.CumAck > s.cumAck {
				newly = int(pkt.CumAck - s.cumAck)
			}
			s.cc.OnAck(now, now.Sub(pkt.SentAt), newly, pkt.ECNEcho)
		}
		if pkt.CumAck > s.cumAck {
			s.cumAck = pkt.CumAck
		}
		if s.cumAck >= packet.PSN(s.total) {
			s.finish()
		}
		s.ep.Wake()
	case packet.TypeNack:
		s.Stats.Nacks++
		if pkt.CumAck > s.cumAck {
			s.cumAck = pkt.CumAck
		}
		s.cc.OnLoss(now)
		// Go-back-N: rewind to the receiver's expected sequence number
		// and retransmit everything after it.
		if pkt.CumAck < s.nextPSN {
			s.nextPSN = pkt.CumAck
		}
		s.ep.Wake()
	}
}

func (s *Sender) finish() {
	if s.done {
		return
	}
	s.done = true
	s.probe.Cancel()
	if st, ok := s.cc.(transport.Stopper); ok {
		st.Stop()
	}
	s.ep.Wake()
}

// Receiver is the RoCE receiver: strict in-order delivery. It implements
// transport.Sink and drives loss recovery (NACK on gap, timeout NACK on
// stall — the Read re-request).
type Receiver struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params

	expected packet.PSN
	total    int

	nackedFor packet.PSN // expected value already NACKed this episode (+1; 0 = none)
	rto       sim.Timer
	complete  bool
	done      transport.Completer
	cnp       transport.CNPGenerator

	// Stats.
	Nacks, TimeoutNacks, Discards uint64
}

// NewReceiver builds a RoCE receiver. Its stall timer starts armed (the
// requester knows the transfer is outstanding).
func NewReceiver(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) *Receiver {
	r := new(Receiver)
	r.Init(ep, flow, p, done)
	return r
}

// Init is NewReceiver in place; see Sender.Init. Init overwrites every
// field, so a receiver may be Init-ed again for another flow once done
// has been told its flow completed: nothing touches the receiver after
// FlowDone returns, and Retired then answers the old flow's late
// duplicates in its place. The stall timer's event may still be queued
// then; it lapses, as a reaped sender's do.
func (r *Receiver) Init(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) {
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	*r = Receiver{
		ep:    ep,
		pool:  ep.Pool(),
		flow:  flow,
		p:     p,
		total: flow.Pkts,
		done:  done,
	}
	r.rto.Init(ep.Engine(), ep.Clock(), r, receiverRTO)
	if !p.DisableTimeout {
		r.rto.Arm(p.RTOHigh)
	}
}

// receiverRTO is the Receiver's only sim.Handler event kind: the stall
// timer (the Read re-request).
const receiverRTO uint8 = 0

// HandleEvent implements sim.Handler (the stall timer).
func (r *Receiver) HandleEvent(uint8, uint64) { r.onTimeout() }

// Expected returns the next expected PSN.
func (r *Receiver) Expected() packet.PSN { return r.expected }

// HandleData implements transport.Sink.
func (r *Receiver) HandleData(pkt *packet.Packet, now sim.Time) {
	if pkt.CE && r.cnp.OnMarked(now) {
		r.ep.SendControl(r.pool.NewCNP(pkt.Flow, r.flow.Dst, r.flow.Src))
	}
	if !r.p.DisableTimeout && !r.complete {
		r.rto.Arm(r.p.RTOHigh) // any arrival is progress; reset the stall timer
	}

	switch {
	case pkt.PSN < r.expected:
		// Duplicate from a rewind that overshot. If we already finished,
		// re-announce completion so the sender can stop.
		if r.complete {
			r.sendCompletion(pkt)
		}

	case pkt.PSN == r.expected:
		r.expected++
		r.nackedFor = 0
		if r.p.PerPacketAck && !r.complete && r.expected < packet.PSN(r.total) {
			ack := r.pool.NewAck(r.flow.ID, r.flow.Dst, r.flow.Src, r.expected)
			ack.SentAt = pkt.SentAt
			ack.ECNEcho = pkt.CE
			r.ep.SendControl(ack)
		}
		if int(r.expected) >= r.total {
			r.finish(pkt, now)
		}

	default:
		// Out of order: discard, NACK once per gap episode (§2.1).
		r.Discards++
		if r.nackedFor != r.expected+1 {
			r.nackedFor = r.expected + 1
			r.Nacks++
			n := r.pool.NewNack(r.flow.ID, r.flow.Dst, r.flow.Src, r.expected, pkt.PSN)
			n.SentAt = pkt.SentAt
			r.ep.SendControl(n)
		}
	}
}

// onTimeout fires when the transfer stalls: model of the requester
// re-issuing the Read from its current offset (a go-back-N NACK).
func (r *Receiver) onTimeout() {
	if r.complete {
		return
	}
	r.TimeoutNacks++
	r.nackedFor = r.expected + 1
	r.ep.SendControl(r.pool.NewNack(r.flow.ID, r.flow.Dst, r.flow.Src, r.expected, r.expected))
	r.rto.Arm(r.p.RTOHigh)
}

// finish records completion and tells the sender.
func (r *Receiver) finish(last *packet.Packet, now sim.Time) {
	r.complete = true
	r.rto.Cancel()
	r.flow.Finished = true
	r.flow.Finish = now
	r.sendCompletion(last)
	if r.done != nil {
		r.done.FlowDone(r.flow, now)
	}
}

// Retired implements transport.Retirer.
func (r *Receiver) Retired() transport.Retired { return transport.NewRetired(r.flow, r.cnp) }

// sendCompletion acknowledges the whole message.
func (r *Receiver) sendCompletion(trigger *packet.Packet) {
	ack := r.pool.NewAck(r.flow.ID, r.flow.Dst, r.flow.Src, packet.PSN(r.total))
	ack.SentAt = trigger.SentAt
	ack.ECNEcho = trigger.CE
	r.ep.SendControl(ack)
}
