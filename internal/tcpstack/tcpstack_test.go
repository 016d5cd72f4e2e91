package tcpstack

import (
	"testing"

	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/transport/transporttest"
)

// runOverFabric runs one iWARP flow of pkts segments over a two-host star,
// dropping what lossFn picks, and returns its sender, the sender's window
// and the flow's completion time.
func runOverFabric(t *testing.T, p Params, pkts int,
	lossFn func(*packet.Packet) bool) (*core.Sender, *cc.NewReno, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo.NewStar(2), fabric.DefaultConfig())

	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * p.MTU, Pkts: pkts}
	reno := cc.NewNewReno()
	snd := core.NewSender(net.NIC(0), flow, p, reno)
	var doneAt sim.Time
	rcv := NewReceiver(net.NIC(1), flow, p, doneFn(func(now sim.Time) { doneAt = now }))
	net.NIC(1).AttachSink(flow.ID, transporttest.Sink(rcv, lossFn))
	net.NIC(0).AttachSource(transporttest.Source(snd, lossFn))

	eng.RunUntil(sim.Time(1 * sim.Second))
	return snd, reno, doneAt
}

func TestSlowStartRampUp(t *testing.T) {
	p := DefaultParams(1000)
	snd, reno, doneAt := runOverFabric(t, p, 500, nil)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d on lossless path", snd.Stats.Retransmits)
	}
	// Slow start must have grown the window well beyond IW.
	if reno.WindowPackets() < 50 {
		t.Errorf("cwnd = %v after 500 acked segments", reno.WindowPackets())
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
	if snd.Stats.Recoveries == 0 {
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
	// The RTO is at least RTOLow (1 ms): the recovery is visible in the
	// FCT.
	if doneAt < sim.Time(p.RTOLow) {
		t.Errorf("FCT %v below RTOLow", sim.Duration(doneAt))
	}
}

func TestCwndHalvesOnFastRetransmit(t *testing.T) {
	ep := &stubEP{eng: sim.NewEngine()}
	p := DefaultParams(1000)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000 * 1000, Pkts: 1000}
	reno := cc.NewNewReno()
	s := core.NewSender(ep, flow, p, reno)
	// Grow the window to 64 segments artificially.
	reno.OnAck(0, 0, 60, false)
	// Fill the window.
	for {
		ready, _ := s.HasData(0)
		if !ready {
			break
		}
		s.NextPacket(0)
	}
	// Three duplicate ACKs with SACKs: NACKs with the cumulative ack at 0.
	for i := packet.PSN(1); i <= 3; i++ {
		s.HandleControl(packet.NewNack(1, 1, 0, 0, i), 100)
	}
	if s.Stats.Recoveries != 1 {
		t.Fatal("3 dupacks must enter fast recovery")
	}
	if reno.WindowPackets() > 33 {
		t.Errorf("cwnd = %v after fast retransmit, want ~inflight/2", reno.WindowPackets())
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
	reno := cc.NewNewReno()
	s := core.NewSender(ep, flow, DefaultParams(1000), reno)
	reno.OnAck(0, 0, 6, false) // a window of 10
	for {
		if ready, _ := s.HasData(0); !ready {
			break
		}
		s.NextPacket(0)
	}
	s.HandleControl(packet.NewCNP(1, 1, 0), 50)
	for psn := packet.PSN(1); psn <= 3; psn++ {
		if s.Stats.Recoveries != 0 {
			t.Fatalf("in fast recovery after %d NACKs, want 3", psn-1)
		}
		s.HandleControl(packet.NewNack(1, 1, 0, 0, psn), 100)
	}
	if s.Stats.Recoveries != 1 {
		t.Fatalf("3 NACKs: %d fast retransmits, want one", s.Stats.Recoveries)
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

// doneFn adapts a closure to transport.Completer, dropping the flow.
func doneFn(f func(now sim.Time)) transport.Completer {
	return transport.CompleterFunc(func(_ *transport.Flow, now sim.Time) { f(now) })
}
