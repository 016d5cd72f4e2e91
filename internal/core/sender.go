package core

import (
	"github.com/irnsim/irn/internal/bitmap"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/transport"
)

// Sender is the IRN sender of §3.1/§3.2, and iWARP's TCP sender under
// RecoveryTCP and a cc.NewReno controller. It implements transport.Source.
//
// Loss recovery is recovery.Scoreboard: entered on a NACK or timeout,
// first retransmission at the cumulative ack, later packets lost only
// below a selective ack, ended once the cumulative ack passes the highest
// PSN transmitted before it began. What this type adds is the send
// pointer under BDP-FC and the congestion window, pacing, the NACK
// threshold, the retransmission fetch delay, and the §4.3 ablations:
// go-back-N rewinds nextNew instead of asking the scoreboard for lost
// packets, and the no-SACK mode never feeds it selective acks.
type Sender struct {
	ep   transport.Endpoint
	pool *packet.Pool
	flow *transport.Flow
	p    Params
	cc   transport.Controller

	total   int
	nextNew packet.PSN
	maxSent packet.PSN // highest PSN ever transmitted + 1, across go-back-N rewinds
	sb      recovery.Scoreboard

	nackCount int // NACKs (RecoveryTCP: duplicate ACKs) toward NackThreshold

	paceUntil  sim.Time
	retxEligAt sim.Time // earliest next retransmission (fetch-delay model)

	rto     sim.Timer
	rtt     recovery.RTT // dynamic RTO estimate (§4.3 question 3)
	backoff uint8        // the dynamic RTO's exponent, 0…maxBackoff

	done bool

	Stats transport.SenderStats
}

// NewSender builds an IRN sender for flow on endpoint ep. cc may be nil
// for no explicit congestion control.
func NewSender(ep transport.Endpoint, flow *transport.Flow, p Params, ctrl transport.Controller) *Sender {
	s := new(Sender)
	s.Init(ep, flow, p, ctrl, nil)
	return s
}

// Init is NewSender in place: s is one object — timer, scoreboard and
// bitmap header included — and only the bitmap words live outside it,
// carved from words (nil: the heap). A launcher that carves s itself from
// a slab starts a flow without touching the allocator. s must not be
// copied afterwards. Init overwrites every field, so a finished sender
// the NIC has reaped may be Init-ed again for another flow (see
// sim.Timer on its queued timer events); it then keeps its bitmap words
// if they are enough for the new flow (slab.Slab.Reuse).
func (s *Sender) Init(ep transport.Endpoint, flow *transport.Flow, p Params, ctrl transport.Controller, words *slab.Slab[uint64]) {
	if ctrl == nil {
		ctrl = transport.None{}
	}
	if flow.Pkts == 0 {
		flow.Pkts = transport.NumPackets(flow.Size, p.MTU)
	}
	if p.NackThreshold < 1 {
		p.NackThreshold = 1
	}
	run := words.Reuse(s.sb.Words(), windowWords(flow.Pkts, p))
	*s = Sender{
		ep:    ep,
		pool:  ep.Pool(),
		flow:  flow,
		p:     p,
		cc:    ctrl,
		total: flow.Pkts,
	}
	s.sb.Init(run)
	s.rto.Init(ep.Engine(), ep.Clock(), s, senderRTO)
}

// windowWords sizes the sender's SACK bitmap and the receiver's arrival
// bitmap: one bit more than the BDP-FC cap, or than the message when it is
// shorter or the window uncapped (the bitmap must then cover it all).
func windowWords(pkts int, p Params) int {
	capPkts := p.BDPCap
	if capPkts <= 0 || capPkts > pkts {
		capPkts = pkts
	}
	return bitmap.Words(capPkts + 1)
}

// senderRTO is the Sender's only sim.Handler event kind: RTO expiry.
const senderRTO uint8 = 0

// HandleEvent implements sim.Handler (the retransmission timer).
func (s *Sender) HandleEvent(uint8, uint64) { s.onTimeout() }

// Flow implements transport.Source.
func (s *Sender) Flow() *transport.Flow { return s.flow }

// Done implements transport.Source.
func (s *Sender) Done() bool { return s.done }

// inflight is the BDP-FC quantity: distance between the next new sequence
// number and the last acknowledged one (§3.2).
func (s *Sender) inflight() int { return int(s.nextNew - s.sb.Cum()) }

// windowOpen reports whether BDP-FC and the congestion window admit a new
// (non-retransmitted) packet.
func (s *Sender) windowOpen() bool {
	inf := s.inflight()
	if s.p.BDPCap > 0 && inf >= s.p.BDPCap {
		return false
	}
	if w := s.cc.WindowPackets(); w > 0 && inf >= w {
		return false
	}
	return true
}

// selective reports whether lost packets are retransmitted one by one;
// go-back-N rewinds nextNew instead.
func (s *Sender) selective() bool { return s.p.Recovery != RecoveryGoBackN }

// HasData implements transport.Source.
func (s *Sender) HasData(now sim.Time) (bool, sim.Time) {
	if s.done {
		return false, 0
	}
	if now < s.paceUntil {
		return false, s.paceUntil
	}
	if s.selective() {
		if _, lost := s.sb.Peek(packet.PSN(s.total)); lost {
			if now < s.retxEligAt {
				return false, s.retxEligAt
			}
			return true, 0
		}
	}
	if s.nextNew < packet.PSN(s.total) && s.windowOpen() {
		return true, 0
	}
	return false, 0
}

// NextPacket implements transport.Source.
func (s *Sender) NextPacket(now sim.Time) *packet.Packet {
	var psn packet.PSN
	lost := false
	if s.selective() && now >= s.retxEligAt {
		psn, lost = s.sb.Take(packet.PSN(s.total))
	}
	if lost {
		if s.p.RetxFetchDelay > 0 {
			// The next retransmission must be identified by a fresh
			// look-ahead, costing another fetch (§6.3 worst case).
			s.retxEligAt = now.Add(s.p.RetxFetchDelay)
		}
		s.Stats.Retransmits++
	} else if s.nextNew < packet.PSN(s.total) && s.windowOpen() {
		psn = s.nextNew
		s.nextNew++
		if psn < s.maxSent {
			s.Stats.Retransmits++ // go-back-N rewind resend
		}
	} else {
		return nil
	}
	if psn+1 > s.maxSent {
		s.maxSent = psn + 1
	}

	payload := transport.PayloadOf(s.flow.Size, s.p.MTU, int(psn))
	pkt := s.pool.NewData(s.flow.ID, s.flow.Src, s.flow.Dst, psn, payload, int(psn) == s.total-1)
	pkt.Wire += int32(s.p.ExtraHeaderBytes)
	pkt.ECT = s.p.ECT
	pkt.SentAt = now
	s.Stats.Sent++

	if d := s.cc.SendDelay(int(pkt.Wire)); d > 0 {
		s.paceUntil = now.Add(d)
	}
	s.armRTO()
	return pkt
}

// maxBackoff caps the dynamic RTO's exponential back-off at 2⁶ (RFC 6298
// §5.5).
const maxBackoff = 6

// rtoDuration picks the timeout per §3.1: RTOLow while few packets are in
// flight (so single-packet messages recover quickly without spurious
// retransmissions elsewhere), RTOHigh otherwise; or the dynamic RTO of
// Params.DynamicRTO.
func (s *Sender) rtoDuration() sim.Duration {
	if !s.p.DynamicRTO {
		return recovery.DualRTO(s.inflight(), s.p.RTOLowThreshold, s.p.RTOLow, s.p.RTOHigh)
	}
	rto, ok := s.rtt.RTO()
	if !ok {
		rto = s.p.RTOHigh
	} else if rto < s.p.RTOLow {
		rto = s.p.RTOLow
	}
	return min(rto<<s.backoff, 4*s.p.RTOHigh)
}

// armRTO (re)arms the retransmission timer.
func (s *Sender) armRTO() {
	if s.done {
		s.rto.Cancel()
		return
	}
	s.rto.Arm(s.rtoDuration())
}

// onTimeout handles RTO expiry: enter (or restart) loss recovery from the
// cumulative ack.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	if s.sb.Cum() >= s.maxSent {
		// Nothing outstanding; nothing to recover. Do not re-arm — the
		// next transmission re-arms the timer.
		return
	}
	s.Stats.Timeouts++
	if s.backoff < maxBackoff {
		s.backoff++
	}
	s.loss(s.ep.Now(), true)
	if s.p.Recovery == RecoveryTCP {
		// Unlike IRN's, TCP's timeout restamps a running episode, and
		// the SACK state is advisory after it (RFC 2018 §8): holes
		// count again only below selective acks not yet recorded.
		s.sb.Restamp(s.maxSent)
		s.sb.DropHighSack()
	}
	s.sb.Rescan()
	if !s.selective() {
		s.goBackTo(s.sb.Cum())
	}
	s.armRTO()
	s.ep.Wake()
}

// loss reports a loss — a recovery entry or a timeout — to the controller,
// with the packets in flight to one that follows episodes, and starts a
// recovery episode if none is running. The recovery sequence is the
// highest PSN ever transmitted, which survives go-back-N rewinds of
// nextNew.
func (s *Sender) loss(now sim.Time, timeout bool) {
	s.cc.OnLoss(now)
	if r, ok := s.cc.(transport.Recoverer); ok {
		r.EnterRecovery(s.inflight(), timeout)
	}
	if s.sb.Enter(s.maxSent) {
		s.Stats.Recoveries++
		s.nackCount = 0
	}
}

// goBackTo rewinds the transmission point for go-back-N recovery.
func (s *Sender) goBackTo(psn packet.PSN) {
	if psn < s.nextNew {
		s.nextNew = psn
	}
}

// HandleControl implements transport.Source.
func (s *Sender) HandleControl(pkt *packet.Packet, now sim.Time) {
	switch pkt.Type {
	case packet.TypeAck:
		s.handleAck(pkt, now, false)
	case packet.TypeNack:
		s.handleAck(pkt, now, true)
	case packet.TypeCNP:
		s.cc.OnCNP(now)
	}
}

// handleAck processes the cumulative portion shared by ACKs and NACKs,
// then loss detection and NACK-specific recovery state.
func (s *Sender) handleAck(pkt *packet.Packet, now sim.Time, nack bool) {
	if s.done {
		return
	}
	newly, exited := s.sb.Ack(pkt.CumAck)
	rtt := now.Sub(pkt.SentAt) // every ACK and NACK echoes SentAt
	if newly > 0 || !nack {
		s.cc.OnAck(now, rtt, newly, pkt.ECNEcho)
	}
	if exited {
		if r, ok := s.cc.(transport.Recoverer); ok {
			r.ExitRecovery()
		}
	}

	if newly > 0 {
		if s.nextNew < pkt.CumAck {
			// A go-back-N rewind was overtaken by the cumulative ack
			// (the receiver already had the rewound range buffered);
			// never resend delivered packets.
			s.nextNew = pkt.CumAck
		}
		s.rtt.Sample(rtt)
		s.backoff = 0
		s.nackCount = 0
		s.armRTO()
	}

	if nack {
		s.Stats.Nacks++
		if s.p.Recovery == RecoverySACK || s.p.Recovery == RecoveryTCP {
			s.sb.Sack(pkt.SackPSN)
		}
	}
	// IRN counts NACKs toward NackThreshold, TCP duplicate ACKs.
	dup := nack
	if s.p.Recovery == RecoveryTCP {
		dup = newly == 0 && pkt.CumAck == s.sb.Cum()
	}
	if dup && !s.sb.InRecovery() {
		s.nackCount++
		if s.nackCount >= s.p.NackThreshold {
			s.loss(now, false)
			if s.p.RetxFetchDelay > 0 {
				s.retxEligAt = now.Add(s.p.RetxFetchDelay)
			}
		}
	}
	// Go-back-N ablation (§4.3): the sender ignores the selective
	// acknowledgement and rewinds to the cumulative ack on every NACK —
	// the redundant-retransmission pathology of §4.2.3.
	if nack && !s.selective() && s.sb.InRecovery() {
		s.goBackTo(s.sb.Cum())
	}

	if s.sb.Cum() >= packet.PSN(s.total) {
		s.finish()
		return
	}
	s.ep.Wake()
}

// finish marks the flow fully acknowledged and releases resources.
func (s *Sender) finish() {
	s.done = true
	s.rto.Cancel()
	if st, ok := s.cc.(transport.Stopper); ok {
		st.Stop()
	}
	s.ep.Wake() // let the NIC reap this source
}
