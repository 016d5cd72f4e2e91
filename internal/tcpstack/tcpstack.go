// Package tcpstack models the iWARP approach (§2.3, §4.6): the full TCP
// loss-recovery and congestion-control machinery implemented in the NIC.
// Where IRN strips TCP down to SACK recovery + a static BDP window, this
// stack keeps the parts IRN deliberately dropped: slow start, ssthresh,
// AIMD congestion avoidance, duplicate-ACK fast retransmit, NewReno-style
// fast recovery, and a dynamically computed RTO with exponential backoff
// (RFC 6298). The SACK scoreboard, the RTT estimator and the receiver's
// reassembly window are the ones IRN kept: internal/recovery.
//
// Segments are modelled at MTU granularity (one PSN = one segment). The
// byte-stream reassembly and the RDMA-message translation layers that make
// real iWARP NICs expensive are modelled in the verbs package; here we
// reproduce the transport dynamics the paper's Figure 11 measures, where
// the difference from IRN is the congestion machinery — most visibly slow
// start, which costs iWARP 21% in average slowdown.
package tcpstack

import (
	"github.com/irnsim/irn/internal/bitmap"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/transport"
)

// Params configures a TCP sender/receiver pair.
type Params struct {
	// MTU is the segment payload size.
	MTU int
	// InitialWindow is the slow-start initial congestion window in
	// segments (IW).
	InitialWindow int
	// MinRTO clamps the computed retransmission timeout from below.
	MinRTO sim.Duration
	// MaxRTO clamps it from above.
	MaxRTO sim.Duration
	// InitialRTO applies before the first RTT sample.
	InitialRTO sim.Duration
	// DupAckThreshold triggers fast retransmit (3).
	DupAckThreshold int
	// MaxWindow bounds the congestion window in segments (the receive
	// window / socket buffer); zero means unbounded.
	MaxWindow int
}

// DefaultParams returns a conventional datacenter TCP configuration.
func DefaultParams(mtu int) Params {
	return Params{
		MTU:             mtu,
		InitialWindow:   4,
		MinRTO:          1 * sim.Millisecond,
		MaxRTO:          100 * sim.Millisecond,
		InitialRTO:      3 * sim.Millisecond,
		DupAckThreshold: 3,
	}
}

// Sender is the TCP sender. It implements transport.Source.
type Sender struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params

	total   int
	nextNew packet.PSN
	sb      recovery.Scoreboard // fast recovery

	// Congestion control.
	cwnd     float64
	ssthresh float64

	dupAcks int

	// RTO (RFC 6298).
	rtt     recovery.RTT
	backoff uint
	rto     sim.Timer

	done bool

	Stats transport.SenderStats
}

// NewSender builds a TCP sender for flow.
func NewSender(ep transport.Endpoint, flow *transport.Flow, p Params) *Sender {
	s := new(Sender)
	s.Init(ep, flow, p, nil)
	return s
}

// Init is NewSender in place: s is one object — timer, scoreboard and
// bitmap header included — and only the bitmap words live outside it,
// carved from words (nil: the heap). s must not be copied afterwards.
// Init overwrites every field, so a finished sender the NIC has reaped may
// be Init-ed again for another flow (see sim.Timer on its queued timer
// events); it then keeps its bitmap words if they are enough for the new
// flow (slab.Slab.Reuse).
func (s *Sender) Init(ep transport.Endpoint, flow *transport.Flow, p Params, words *slab.Slab[uint64]) {
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	if p.InitialWindow < 1 {
		p.InitialWindow = 1
	}
	if p.DupAckThreshold < 1 {
		p.DupAckThreshold = 3
	}
	run := words.Reuse(s.sb.Words(), windowWords(flow.Pkts))
	*s = Sender{
		ep:       ep,
		pool:     ep.Pool(),
		flow:     flow,
		p:        p,
		total:    flow.Pkts,
		cwnd:     float64(p.InitialWindow),
		ssthresh: 1 << 30, // slow start until the first loss
	}
	s.sb.Init(run)
	s.rto.Init(ep.Engine(), ep.Clock(), s, senderRTO)
}

// senderRTO is the Sender's only sim.Handler event kind: RTO expiry.
const senderRTO uint8 = 0

// HandleEvent implements sim.Handler (the retransmission timer).
func (s *Sender) HandleEvent(uint8, uint64) { s.onTimeout() }

// windowWords sizes the SACK and reassembly bitmaps: the whole message,
// up to a 64 Ki-segment socket buffer.
func windowWords(total int) int { return bitmap.Words(min(total, 1<<16) + 1) }

// Flow implements transport.Source.
func (s *Sender) Flow() *transport.Flow { return s.flow }

// Done implements transport.Source.
func (s *Sender) Done() bool { return s.done }

// Cwnd exposes the congestion window for tests.
func (s *Sender) Cwnd() float64 { return s.cwnd }

func (s *Sender) window() int {
	w := int(s.cwnd)
	if w < 1 {
		w = 1
	}
	if s.p.MaxWindow > 0 && w > s.p.MaxWindow {
		w = s.p.MaxWindow
	}
	return w
}

func (s *Sender) inflight() int { return int(s.nextNew - s.sb.Cum()) }

// HasData implements transport.Source.
func (s *Sender) HasData(sim.Time) (bool, sim.Time) {
	if s.done {
		return false, 0
	}
	if _, lost := s.sb.Peek(packet.PSN(s.total)); lost {
		return true, 0
	}
	if s.nextNew < packet.PSN(s.total) && s.inflight() < s.window() {
		return true, 0
	}
	return false, 0
}

// NextPacket implements transport.Source.
func (s *Sender) NextPacket(now sim.Time) *packet.Packet {
	psn, lost := s.sb.Take(packet.PSN(s.total))
	if lost {
		s.Stats.Retransmits++
	} else if s.nextNew < packet.PSN(s.total) && s.inflight() < s.window() {
		psn = s.nextNew
		s.nextNew++
	} else {
		return nil
	}
	payload := transport.PayloadOf(s.flow.Size, s.p.MTU, int(psn))
	pkt := s.pool.NewData(s.flow.ID, s.flow.Src, s.flow.Dst, psn, payload, int(psn) == s.total-1)
	pkt.SentAt = now
	s.Stats.Sent++
	s.armRTO()
	return pkt
}

// rtoDuration computes SRTT + 4·RTTVAR with exponential backoff.
func (s *Sender) rtoDuration() sim.Duration {
	base, ok := s.rtt.RTO()
	if !ok {
		base = s.p.InitialRTO
	}
	if base < s.p.MinRTO {
		base = s.p.MinRTO
	}
	d := base << s.backoff
	if d > s.p.MaxRTO {
		d = s.p.MaxRTO
	}
	return d
}

func (s *Sender) armRTO() {
	if s.done {
		s.rto.Cancel()
		return
	}
	s.rto.Arm(s.rtoDuration())
}

// onTimeout is the RTO: collapse to slow start and retransmit from the
// cumulative ack.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	if s.sb.Cum() >= s.nextNew {
		return
	}
	s.Stats.Timeouts++
	s.ssthresh = max(float64(s.inflight())/2, 2)
	s.cwnd = 1
	s.backoff++
	if s.backoff > 6 {
		s.backoff = 6
	}
	// Unlike IRN's timeout this restamps a running episode, and it
	// treats the scoreboard as unreliable after an RTO: holes count again
	// only below selective acks not yet recorded.
	s.sb.Restamp(s.nextNew)
	s.sb.Rescan()
	s.sb.DropHighSack()
	s.armRTO()
	s.ep.Wake()
}

// HandleControl implements transport.Source: TCP ACK processing with
// duplicate-ACK fast retransmit.
func (s *Sender) HandleControl(pkt *packet.Packet, now sim.Time) {
	if s.done || pkt.Type != packet.TypeAck {
		return
	}
	// SACK information rides along on duplicate ACKs (zero = none).
	if pkt.SackPSN > 0 {
		s.sb.Sack(pkt.SackPSN)
	}

	switch {
	case pkt.CumAck > s.sb.Cum():
		recovering := s.sb.InRecovery()
		newly, exited := s.sb.Ack(pkt.CumAck)
		s.dupAcks = 0
		s.backoff = 0
		if pkt.SentAt > 0 {
			s.rtt.Sample(now.Sub(pkt.SentAt))
		}
		if exited {
			s.cwnd = s.ssthresh // deflate to ssthresh on exit
		} else if !recovering {
			s.growWindow(newly)
		}
		s.armRTO()

	case pkt.CumAck == s.sb.Cum() && pkt.CumAck < packet.PSN(s.total):
		s.dupAcks++
		if !s.sb.InRecovery() && s.dupAcks >= s.p.DupAckThreshold {
			// Fast retransmit + fast recovery.
			s.Stats.FastRetransmits++
			s.ssthresh = max(float64(s.inflight())/2, 2)
			s.cwnd = s.ssthresh
			s.sb.Enter(s.nextNew)
		}
	}

	if s.sb.Cum() >= packet.PSN(s.total) {
		s.done = true
		s.rto.Cancel()
	}
	s.ep.Wake()
}

// growWindow applies slow start or congestion avoidance.
func (s *Sender) growWindow(newly int) {
	for i := 0; i < newly; i++ {
		if s.cwnd < s.ssthresh {
			s.cwnd++
		} else {
			s.cwnd += 1 / s.cwnd
		}
	}
	if s.p.MaxWindow > 0 && s.cwnd > float64(s.p.MaxWindow) {
		s.cwnd = float64(s.p.MaxWindow)
	}
}

// Receiver is the TCP receiver: it buffers out-of-order segments and acks
// every arrival — cumulative ACKs for in-order data, duplicate ACKs
// carrying SACK information for gaps. It implements transport.Sink.
type Receiver struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params

	win   recovery.Reorder
	total int

	done transport.Completer

	// Stats.
	Acks, DupAcks uint64
}

// NewReceiver builds a TCP receiver.
func NewReceiver(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) *Receiver {
	r := new(Receiver)
	r.Init(ep, flow, p, done, nil)
	return r
}

// Init is NewReceiver in place, with the reassembly bitmap's words carved
// from words (nil: the heap); see Sender.Init. Init overwrites every
// field, so a receiver may be Init-ed again for another flow once done
// has been told its flow completed: nothing touches the receiver after
// FlowDone returns, and Retired then answers the old flow's late
// duplicates in its place.
func (r *Receiver) Init(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer, words *slab.Slab[uint64]) {
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	run := words.Reuse(r.win.Words(), windowWords(flow.Pkts))
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

// Retired implements transport.Retirer. TCP sends no CNPs.
func (r *Receiver) Retired() transport.Retired { return transport.NewRetired(r.flow, nil) }

// Received reports distinct segments received.
func (r *Receiver) Received() int { return r.win.Received() }

// HandleData implements transport.Sink.
func (r *Receiver) HandleData(pkt *packet.Packet, now sim.Time) {
	switch kind, _ := r.win.Arrive(pkt.PSN); kind {
	case recovery.Duplicate:
		r.ack(pkt, 0) // duplicate data: re-ack current position

	case recovery.InOrder:
		r.ack(pkt, 0)
		r.maybeComplete(now)

	case recovery.OutOfOrder:
		r.DupAcks++
		r.ack(pkt, pkt.PSN) // duplicate ACK with SACK info
		r.maybeComplete(now)

	case recovery.Outside:
		// Outside the reassembly window: drop; the sender will
		// retransmit once the window drains.
	}
}

// ack emits a cumulative ACK; sack != 0 marks it as a duplicate ACK
// carrying selective-acknowledgement information.
func (r *Receiver) ack(trigger *packet.Packet, sack packet.PSN) {
	a := r.pool.NewAck(r.flow.ID, r.flow.Dst, r.flow.Src, r.win.Expected())
	a.SackPSN = sack
	a.SentAt = trigger.SentAt
	a.ECNEcho = trigger.CE
	r.Acks++
	r.ep.SendControl(a)
}

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
