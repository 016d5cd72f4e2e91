package tcpstack

import (
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/transport/transporttest"
)

func runOverFabric(t *testing.T, p Params, pkts int,
	lossFn func(*packet.Packet) bool) (*Sender, *core.Receiver, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo.NewStar(2), fabric.DefaultConfig())

	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * p.MTU, Pkts: pkts}
	snd := NewSender(net.NIC(0), flow, p)
	var doneAt sim.Time
	rcv := NewReceiver(net.NIC(1), flow, p, doneFn(func(now sim.Time) { doneAt = now }))
	net.NIC(1).AttachSink(flow.ID, transporttest.Sink(rcv, lossFn))
	net.NIC(0).AttachSource(transporttest.Source(snd, lossFn))

	eng.RunUntil(sim.Time(1 * sim.Second))
	return snd, rcv, doneAt
}

func TestSlowStartRampUp(t *testing.T) {
	p := DefaultParams(1000)
	snd, _, doneAt := runOverFabric(t, p, 500, nil)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d on lossless path", snd.Stats.Retransmits)
	}
	// Slow start must have grown the window well beyond IW.
	if snd.Cwnd() < 50 {
		t.Errorf("cwnd = %v after 500 acked segments", snd.Cwnd())
	}
}

func TestSlowStartCostsTimeVersusLineRateStart(t *testing.T) {
	// The §4.6 effect: TCP pays slow-start round trips a line-rate
	// starting transport does not. A 100-packet transfer takes several
	// RTTs with IW=4.
	p := DefaultParams(1000)
	_, _, doneAt := runOverFabric(t, p, 100, nil)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	// One RTT is ~8.5 µs here; line-rate transfer of 100 packets is
	// ~21 µs + RTT ≈ 26 µs. Slow start from IW=4 needs ~5 window
	// doublings, pushing the FCT well past the line-rate bound.
	minSlowStart := sim.Time(35 * sim.Microsecond)
	if doneAt < minSlowStart {
		t.Errorf("FCT %v too fast; slow start should cost several RTTs", sim.Duration(doneAt))
	}
}

func TestFastRetransmitOnDupAcks(t *testing.T) {
	p := DefaultParams(1000)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.PSN == 50 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, _, doneAt := runOverFabric(t, p, 300, lossFn)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Stats.FastRetransmits == 0 {
		t.Error("expected a fast retransmit")
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d; dupacks should have repaired the loss", snd.Stats.Timeouts)
	}
	if snd.Stats.Retransmits > 5 {
		t.Errorf("SACK recovery retransmitted %d segments for one loss", snd.Stats.Retransmits)
	}
}

func TestTimeoutCollapsesToSlowStart(t *testing.T) {
	p := DefaultParams(1000)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		// Drop the tail: no dupacks possible.
		if pkt.Type == packet.TypeData && pkt.Last && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, _, doneAt := runOverFabric(t, p, 50, lossFn)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Stats.Timeouts == 0 {
		t.Error("tail loss must recover via RTO")
	}
	// RTO is >= MinRTO (1 ms): the recovery is visible in the FCT.
	if doneAt < sim.Time(p.MinRTO) {
		t.Errorf("FCT %v below MinRTO", sim.Duration(doneAt))
	}
}

func TestCwndHalvesOnFastRetransmit(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	p := DefaultParams(1000)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000 * 1000, Pkts: 1000}
	s := NewSender(ep, flow, p)
	// Grow past slow start artificially.
	s.cwnd = 64
	s.ssthresh = 32
	// Fill the window.
	for {
		ready, _ := s.HasData(0)
		if !ready {
			break
		}
		s.NextPacket(0)
	}
	// Three duplicate ACKs (cum stays 0) with SACKs.
	for i := packet.PSN(1); i <= 3; i++ {
		a := packet.NewAck(1, 1, 0, 0)
		a.SackPSN = i
		s.HandleControl(a, 100)
	}
	if !s.sb.InRecovery() {
		t.Fatal("3 dupacks must enter fast recovery")
	}
	if s.Cwnd() > 33 {
		t.Errorf("cwnd = %v after fast retransmit, want ~inflight/2", s.Cwnd())
	}
	// The retransmission must be segment 0.
	pkt := s.NextPacket(200)
	if pkt == nil || pkt.PSN != 0 {
		t.Fatalf("fast retransmit = %v, want PSN 0", pkt)
	}
}

// TestNacksAreDuplicateAcks: the receiver answers an out-of-order segment
// with a NACK carrying the cumulative ACK and the segment's PSN, and the
// sender takes it for the duplicate ACK with SACK information it is:
// three of them with the cumulative ACK unchanged trigger a fast
// retransmit of the hole, and a CNP changes nothing.
func TestNacksAreDuplicateAcks(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 20 * 1000, Pkts: 20}
	s := NewSender(ep, flow, DefaultParams(1000))
	s.cwnd = 10
	for {
		if ready, _ := s.HasData(0); !ready {
			break
		}
		s.NextPacket(0)
	}
	s.HandleControl(packet.NewCNP(1, 1, 0), 50)
	for psn := packet.PSN(1); psn <= 3; psn++ {
		if s.sb.InRecovery() {
			t.Fatalf("in fast recovery after %d NACKs, want 3", psn-1)
		}
		s.HandleControl(packet.NewNack(1, 1, 0, 0, psn), 100)
	}
	if !s.sb.InRecovery() || s.Stats.FastRetransmits != 1 {
		t.Fatalf("3 NACKs: in recovery %v, %d fast retransmits, want a fast retransmit", s.sb.InRecovery(), s.Stats.FastRetransmits)
	}
	if pkt := s.NextPacket(200); pkt == nil || pkt.PSN != 0 {
		t.Fatalf("fast retransmit = %v, want the hole, PSN 0", pkt)
	}
}

type stubEP struct {
	eng  *sim.Engine
	sent []*packet.Packet
}

func (e *stubEP) Now() sim.Time                  { return e.eng.Now() }
func (e *stubEP) Clock() *sim.Clock              { return nil }
func (e *stubEP) Pool() *packet.Pool             { return nil }
func (e *stubEP) Engine() *sim.Engine            { return e.eng }
func (e *stubEP) SendControl(pkt *packet.Packet) { e.sent = append(e.sent, pkt) }
func (e *stubEP) Wake()                          {}

func TestRTOEstimator(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	p := DefaultParams(1000)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10000, Pkts: 10}
	s := NewSender(ep, flow, p)
	if s.rtoDuration() != p.InitialRTO {
		t.Errorf("pre-sample RTO = %v, want InitialRTO", s.rtoDuration())
	}
	for i := 0; i < 20; i++ {
		s.rtt.Sample(100 * sim.Microsecond)
	}
	// Stable RTT of 100 µs → RTO clamps at MinRTO (1 ms).
	if s.rtoDuration() != p.MinRTO {
		t.Errorf("RTO = %v, want MinRTO clamp", s.rtoDuration())
	}
	s.backoff = 3
	if s.rtoDuration() != p.MinRTO<<3 {
		t.Errorf("backoff RTO = %v, want %v", s.rtoDuration(), p.MinRTO<<3)
	}
}

// TestReceiverSACKDupAcks: each out-of-order segment is answered with the
// cumulative ACK and its own PSN as the SACK.
func TestReceiverSACKDupAcks(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	p := DefaultParams(1000)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 10 * 1000, Pkts: 10}
	r := NewReceiver(ep, flow, p, nil)
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 10)
	r.HandleData(packet.NewData(1, 0, 1, 2, 1000, false), 20)
	r.HandleData(packet.NewData(1, 0, 1, 3, 1000, false), 30)
	if len(ep.sent) != 3 {
		t.Fatalf("acks = %d", len(ep.sent))
	}
	if ep.sent[0].CumAck != 1 || ep.sent[0].SackPSN != 0 {
		t.Errorf("in-order ack wrong: %+v", ep.sent[0])
	}
	if ep.sent[1].CumAck != 1 || ep.sent[1].SackPSN != 2 {
		t.Errorf("dup ack 1 wrong: %+v", ep.sent[1])
	}
	if ep.sent[2].CumAck != 1 || ep.sent[2].SackPSN != 3 {
		t.Errorf("dup ack 2 wrong: %+v", ep.sent[2])
	}
	// Filling the hole advances cumulatively.
	r.HandleData(packet.NewData(1, 0, 1, 1, 1000, false), 40)
	if got := ep.sent[3].CumAck; got != 4 {
		t.Errorf("cum after fill = %d, want 4", got)
	}
}

func TestMaxWindowBounds(t *testing.T) {
	p := DefaultParams(1000)
	p.MaxWindow = 8
	snd, _, doneAt := runOverFabric(t, p, 200, nil)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Cwnd() > 8 {
		t.Errorf("cwnd %v exceeded MaxWindow", snd.Cwnd())
	}
}

// doneFn adapts a closure to transport.Completer, dropping the flow.
func doneFn(f func(now sim.Time)) transport.Completer {
	return transport.CompleterFunc(func(_ *transport.Flow, now sim.Time) { f(now) })
}

// TestRTORestampsAndForgetsHighSack pins where this stack's timeout
// departs from IRN's: an RTO during fast recovery moves the recovery
// sequence up to the newest segment, and drops the highest-SACK mark, so
// holes the scoreboard already knew about are not retransmitted until
// selective acks it has not seen arrive. Changing either is a behaviour
// change that moves the Figure 11 fixtures; do it on purpose.
func TestRTORestampsAndForgetsHighSack(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100 * 1000, Pkts: 100}
	s := NewSender(ep, flow, DefaultParams(1000))
	s.cwnd, s.ssthresh = 10, 5
	drain := func() (psns []packet.PSN) {
		for {
			if ready, _ := s.HasData(0); !ready {
				return psns
			}
			psns = append(psns, s.NextPacket(0).PSN)
		}
	}
	sack := func(psn packet.PSN) {
		a := packet.NewAck(1, 1, 0, 0)
		a.SackPSN = psn
		s.HandleControl(a, 100)
	}
	drain() // segments 0..9
	for i := 0; i < 3; i++ {
		sack(6)
	}
	if !s.sb.InRecovery() || s.sb.RecoverySeq() != 9 {
		t.Fatalf("fast recovery: in=%v seq=%d, want recovery up to 9", s.sb.InRecovery(), s.sb.RecoverySeq())
	}
	if got := drain(); len(got) != 6 || got[0] != 0 || got[5] != 5 {
		t.Fatalf("fast recovery retransmitted %v, want holes 0..5 below SACK 6", got)
	}
	s.cwnd = 12
	drain() // segments 10, 11: new data during recovery

	s.onTimeout()
	if s.sb.RecoverySeq() != 11 {
		t.Errorf("RTO left the recovery sequence at %d, want it restamped to 11", s.sb.RecoverySeq())
	}
	if got := drain(); len(got) != 1 || got[0] != 0 {
		t.Errorf("after the RTO retransmitted %v, want only the cumulative ack: high SACK forgotten", got)
	}
	sack(6) // already recorded: does not bring the mark back
	if got := drain(); len(got) != 0 {
		t.Errorf("a repeated SACK retransmitted %v", got)
	}
	sack(8) // new information: holes below it count again, skipping 6
	if got := drain(); len(got) != 6 || got[0] != 1 || got[4] != 5 || got[5] != 7 {
		t.Errorf("after a fresh SACK retransmitted %v, want 1..5 and 7", got)
	}
}
