// Package tcpstack models the iWARP approach (§2.3, §4.6): the full TCP
// loss-recovery and congestion-control machinery implemented in the NIC.
// Where IRN strips TCP down to SACK recovery + a static BDP window, this
// stack keeps the parts IRN deliberately dropped: slow start, ssthresh,
// AIMD congestion avoidance, duplicate-ACK fast retransmit, NewReno-style
// fast recovery, and a dynamically computed RTO with exponential backoff
// (RFC 6298). The SACK scoreboard and the RTT estimator are the ones IRN
// kept: internal/recovery.
//
// The package holds only the sender. IRN's receiver (§3.1) is TCP's SACK
// receiver cut down to one block, so an iWARP flow's receiver is
// core.Receiver with the socket buffer, Window, as its reassembly window,
// and Sender reads its NACKs as the duplicate ACKs with SACK information
// they are. Unlike a TCP receiver it NACKs a segment beyond its window
// instead of dropping it; only a flow of more than Window segments
// (65.5 MB at a 1 KB MTU) can send one, and the sender's scoreboard
// ignores that SACK.
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
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/transport"
)

// Window is the socket buffer in segments: the reach of the sender's SACK
// scoreboard and of the receiver's reassembly window.
const Window = 1 << 16

// The sender's fixed TCP parameters.
const (
	// initialWindow is the slow-start initial congestion window in
	// segments (IW).
	initialWindow = 4
	// dupAckThreshold is the duplicate-ACK count that triggers fast
	// retransmit.
	dupAckThreshold = 3
)

// Params configures a TCP sender. Its receiver takes only the MTU.
type Params struct {
	// MTU is the segment payload size.
	MTU int
	// MinRTO clamps the computed retransmission timeout from below.
	MinRTO sim.Duration
	// MaxRTO clamps it from above.
	MaxRTO sim.Duration
	// InitialRTO applies before the first RTT sample.
	InitialRTO sim.Duration
	// MaxWindow bounds the congestion window in segments (the receive
	// window / socket buffer); zero means unbounded.
	MaxWindow int
}

// DefaultParams returns a conventional datacenter TCP configuration.
func DefaultParams(mtu int) Params {
	return Params{
		MTU:        mtu,
		MinRTO:     1 * sim.Millisecond,
		MaxRTO:     100 * sim.Millisecond,
		InitialRTO: 3 * sim.Millisecond,
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
	run := words.Reuse(s.sb.Words(), windowWords(flow.Pkts))
	*s = Sender{
		ep:       ep,
		pool:     ep.Pool(),
		flow:     flow,
		p:        p,
		total:    flow.Pkts,
		cwnd:     initialWindow,
		ssthresh: 1 << 30, // slow start until the first loss
	}
	s.sb.Init(run)
	s.rto.Init(ep.Engine(), ep.Clock(), s, senderRTO)
}

// senderRTO is the Sender's only sim.Handler event kind: RTO expiry.
const senderRTO uint8 = 0

// HandleEvent implements sim.Handler (the retransmission timer).
func (s *Sender) HandleEvent(uint8, uint64) { s.onTimeout() }

// windowWords sizes the SACK bitmap: the whole message, up to the socket
// buffer.
func windowWords(total int) int { return bitmap.Words(min(total, Window) + 1) }

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
// duplicate-ACK fast retransmit. The receiver's NACKs are duplicate ACKs
// carrying SACK information, and are processed as such; CNPs are ignored.
func (s *Sender) HandleControl(pkt *packet.Packet, now sim.Time) {
	if s.done || pkt.Type == packet.TypeCNP {
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
		if !s.sb.InRecovery() && s.dupAcks >= dupAckThreshold {
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

// ReceiverParams configures the receiver of an iWARP flow: IRN's, with
// the socket buffer as its reassembly window.
func ReceiverParams(mtu int) core.Params { return core.Params{MTU: mtu, BDPCap: Window} }

// NewReceiver builds the receiver of an iWARP flow (see the package doc).
func NewReceiver(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) *core.Receiver {
	return core.NewReceiver(ep, flow, ReceiverParams(p.MTU), done)
}
