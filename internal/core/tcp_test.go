package core

import (
	"fmt"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// TestRTOEstimator pins DynamicRTO's RFC 6298 timer with iWARP's
// constants: RTOHigh before the first RTT sample, the estimate floored at
// RTOLow, doubled on each timeout — before the first sample too — up to
// the 4·RTOHigh cap and at most 2⁶ times, and reset by an ACK that
// advances the cumulative ack, the only kind that is sampled.
func TestRTOEstimator(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.DynamicRTO = true
	p.RTOLow, p.RTOHigh = sim.Millisecond, 3*sim.Millisecond
	s := NewSender(ep, mkFlow(10), p, nil)
	check := func(what string, want sim.Duration) {
		t.Helper()
		if got := s.rtoDuration(); got != want {
			t.Errorf("%s: RTO = %v, want %v", what, got, want)
		}
	}
	check("before the first sample", p.RTOHigh)
	drain(s, 0)
	s.onTimeout()
	check("one timeout before the first sample", 2*p.RTOHigh)
	s.onTimeout()
	check("two timeouts before the first sample", 4*p.RTOHigh)
	for i := 0; i < 10; i++ {
		s.onTimeout()
	}
	if s.backoff != maxBackoff {
		t.Errorf("backoff = %d after 12 timeouts, want %d", s.backoff, maxBackoff)
	}
	check("many timeouts", 4*p.RTOHigh)

	ack := func(cum packet.PSN, sentAt, now sim.Time) {
		a := packet.NewAck(1, 1, 0, cum)
		a.SentAt = sentAt
		s.HandleControl(a, now)
	}
	ack(1, 0, sim.Time(100*sim.Microsecond))
	check("an advancing ACK with a 100 µs RTT", p.RTOLow)
	for i := 0; i < 20; i++ {
		s.rtt.Sample(100 * sim.Microsecond)
	}
	// A stable RTT of 100 µs clamps at RTOLow (1 ms).
	check("a stable 100 µs RTT", p.RTOLow)
	s.backoff = 3
	check("back-off 3", p.RTOLow<<3)
	// A duplicate ACK is not sampled, nor does it reset the back-off.
	ack(1, 0, sim.Time(50*sim.Millisecond))
	check("a duplicate ACK with a 50 ms RTT", p.RTOLow<<3)
}

// TestRTORestampsAndForgetsHighSack pins where RecoveryTCP's timeout
// departs from IRN's: an RTO during recovery moves the recovery sequence
// up to the newest segment and drops the highest-SACK mark, so holes the
// scoreboard already knew about are not retransmitted until selective
// acks it has not seen arrive. IRN's modes do neither. Changing either is
// a behaviour change that moves the Figure 11 fixtures, or the Figure 7
// ones; do it on purpose.
func TestRTORestampsAndForgetsHighSack(t *testing.T) {
	for _, mode := range []RecoveryMode{RecoveryTCP, RecoverySACK, RecoveryGoBackN, RecoveryNoSACK} {
		t.Run(mode.String(), func(t *testing.T) {
			ep := newStubEP()
			p := testParams()
			p.Recovery = mode
			p.NackThreshold = 3
			w := fixedWindow(10)
			s := NewSender(ep, mkFlow(100), p, &w)
			drainPSNs := func() (psns []packet.PSN) {
				for _, pkt := range drain(s, 0) {
					psns = append(psns, pkt.PSN)
				}
				return psns
			}
			sack := func(psn packet.PSN) { s.HandleControl(packet.NewNack(1, 1, 0, 0, psn), 100) }

			drainPSNs() // segments 0..9
			for i := 0; i < 3; i++ {
				sack(6)
			}
			if !s.sb.InRecovery() || s.sb.RecoverySeq() != 9 {
				t.Fatalf("recovery: in=%v seq=%d, want recovery up to 9", s.sb.InRecovery(), s.sb.RecoverySeq())
			}
			if mode != RecoveryTCP {
				w = 12
				drainPSNs()
				s.onTimeout()
				if s.sb.RecoverySeq() != 9 {
					t.Errorf("RTO moved the recovery sequence to %d, want it left at 9", s.sb.RecoverySeq())
				}
				if mode == RecoverySACK {
					if got := drainPSNs(); len(got) != 6 || got[0] != 0 || got[5] != 5 {
						t.Errorf("after the RTO retransmitted %v, want the holes 0..5 below the SACK it kept", got)
					}
				}
				return
			}
			if got := drainPSNs(); len(got) != 6 || got[0] != 0 || got[5] != 5 {
				t.Fatalf("fast recovery retransmitted %v, want holes 0..5 below SACK 6", got)
			}
			w = 12
			drainPSNs() // segments 10, 11: new data during recovery

			s.onTimeout()
			if s.sb.RecoverySeq() != 11 {
				t.Errorf("RTO left the recovery sequence at %d, want it restamped to 11", s.sb.RecoverySeq())
			}
			if got := drainPSNs(); len(got) != 1 || got[0] != 0 {
				t.Errorf("after the RTO retransmitted %v, want only the cumulative ack: high SACK forgotten", got)
			}
			sack(6) // already recorded: does not bring the mark back
			if got := drainPSNs(); len(got) != 0 {
				t.Errorf("a repeated SACK retransmitted %v", got)
			}
			sack(8) // new information: holes below it count again, skipping 6
			if got := drainPSNs(); len(got) != 6 || got[0] != 1 || got[4] != 5 || got[5] != 7 {
				t.Errorf("after a fresh SACK retransmitted %v, want 1..5 and 7", got)
			}
		})
	}
}

// TestDuplicateAckRule: IRN's modes count NACKs toward NackThreshold, one
// that advances the cumulative ack included, and never an ACK;
// RecoveryTCP counts duplicate acknowledgements — ACKs or NACKs that leave
// the cumulative ack unchanged — and so not an advancing NACK.
func TestDuplicateAckRule(t *testing.T) {
	ack := func(cum packet.PSN) *packet.Packet { return packet.NewAck(1, 1, 0, cum) }
	nack := func(cum, sack packet.PSN) *packet.Packet { return packet.NewNack(1, 1, 0, cum, sack) }
	cases := []struct {
		name string
		pkts []*packet.Packet
		irn  bool // IRN's modes enter recovery
		tcp  bool // RecoveryTCP enters recovery
	}{
		{"an advancing NACK and a duplicate", []*packet.Packet{nack(2, 3), nack(2, 4)}, true, false},
		{"duplicate NACKs", []*packet.Packet{nack(2, 3), nack(2, 4), nack(2, 5)}, true, true},
		{"duplicate ACKs", []*packet.Packet{ack(2), ack(2), ack(2)}, false, true},
		{"an advancing ACK between", []*packet.Packet{ack(2), ack(2), ack(3), ack(3)}, false, false},
		{"stale ACKs", []*packet.Packet{ack(4), ack(2), ack(3)}, false, false},
	}
	for _, mode := range []RecoveryMode{RecoverySACK, RecoveryGoBackN, RecoveryNoSACK, RecoveryTCP} {
		for _, c := range cases {
			t.Run(mode.String()+"/"+c.name, func(t *testing.T) {
				p := testParams()
				p.Recovery = mode
				p.NackThreshold = 2
				p.BDPCap = 20
				s := NewSender(newStubEP(), mkFlow(100), p, nil)
				drain(s, 0)
				for i, pkt := range c.pkts {
					s.HandleControl(pkt, sim.Time(100*(i+1)))
				}
				want := c.irn
				if mode == RecoveryTCP {
					want = c.tcp
				}
				if got := s.sb.InRecovery(); got != want {
					t.Errorf("in recovery = %v, want %v", got, want)
				}
			})
		}
	}
}

// recoverySpy is a Controller that follows recovery episodes and logs what
// its sender tells it.
type recoverySpy struct {
	transport.None
	log []string
}

func (c *recoverySpy) OnAck(_ sim.Time, _ sim.Duration, acked int, _ bool) {
	c.log = append(c.log, fmt.Sprintf("ack %d", acked))
}
func (c *recoverySpy) EnterRecovery(inflight int, timeout bool) {
	c.log = append(c.log, fmt.Sprintf("enter %d %v", inflight, timeout))
}
func (c *recoverySpy) ExitRecovery() { c.log = append(c.log, "exit") }

// TestSenderTellsRecoverer: a controller that follows episodes hears of
// each recovery entry and each timeout, mid-episode ones included, with
// the packets then in flight, and of the episode's end right after the
// OnAck of the acknowledgement that ends it.
func TestSenderTellsRecoverer(t *testing.T) {
	p := testParams()
	p.Recovery, p.NackThreshold, p.BDPCap = RecoveryTCP, 3, 10
	spy := new(recoverySpy)
	s := NewSender(newStubEP(), mkFlow(100), p, spy)
	drain(s, 0) // 0..9
	for psn := packet.PSN(1); psn <= 3; psn++ {
		s.HandleControl(packet.NewNack(1, 1, 0, 0, psn), 100)
	}
	s.HandleControl(packet.NewAck(1, 1, 0, 5), 200)
	s.onTimeout()
	s.HandleControl(packet.NewAck(1, 1, 0, 10), 300)
	want := []string{"enter 10 false", "ack 5", "enter 5 true", "ack 5", "exit"}
	if fmt.Sprint(spy.log) != fmt.Sprint(want) {
		t.Errorf("controller heard %q, want %q", spy.log, want)
	}
}

// ackSpy is a Controller that records the ACKs reaching it.
type ackSpy struct {
	transport.None
	acks  int
	acked int
	rtt   sim.Duration
}

func (c *ackSpy) OnAck(_ sim.Time, rtt sim.Duration, acked int, _ bool) {
	c.acks++
	c.acked += acked
	c.rtt = rtt
}

// TestAckOfPacketSentAtZeroReachesController: a send time of 0 is a time,
// not a missing timestamp. The ACK of a flow's first packet, sent at
// t = 0, reaches the controller with its RTT and is sampled.
func TestAckOfPacketSentAtZeroReachesController(t *testing.T) {
	spy := new(ackSpy)
	p := testParams()
	p.DynamicRTO = true
	s := NewSender(newStubEP(), mkFlow(2), p, spy)
	pkt := s.NextPacket(0)
	a := packet.NewAck(1, 1, 0, 1)
	a.SentAt = pkt.SentAt
	s.HandleControl(a, sim.Time(5*sim.Microsecond))
	if spy.acks != 1 || spy.acked != 1 || spy.rtt != 5*sim.Microsecond {
		t.Errorf("controller saw %d ACKs of %d packets, RTT %v; want 1 of 1, 5µs", spy.acks, spy.acked, spy.rtt)
	}
	if _, ok := s.rtt.RTO(); !ok {
		t.Error("the ACK was not sampled")
	}
}
