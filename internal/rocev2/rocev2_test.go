package rocev2

import (
	"testing"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/transport/transporttest"
)

func runOverFabric(t *testing.T, p Params, pfc bool, pkts int,
	lossFn func(*packet.Packet) bool) (*Sender, *Receiver, *fabric.Network, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	cfg.PFC = pfc
	net := fabric.New(eng, topo.NewStar(2), cfg)

	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * p.MTU, Pkts: pkts}
	snd := NewSender(net.NIC(0), flow, p, nil)
	var doneAt sim.Time
	rcv := NewReceiver(net.NIC(1), flow, p, doneFn(func(now sim.Time) { doneAt = now }))
	net.NIC(1).AttachSink(flow.ID, transporttest.Sink(rcv, lossFn))
	net.NIC(0).AttachSource(transporttest.Source(snd, lossFn))

	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	return snd, rcv, net, doneAt
}

func TestLosslessTransfer(t *testing.T) {
	p := DefaultParams(1000)
	snd, rcv, _, doneAt := runOverFabric(t, p, false, 500, nil)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d on lossless path", snd.Stats.Retransmits)
	}
	if rcv.Discards != 0 {
		t.Errorf("discards = %d", rcv.Discards)
	}
	if !snd.Done() {
		t.Error("sender should be done after completion ack")
	}
}

func TestNoPerPacketAcksByDefault(t *testing.T) {
	// The ACK-free baseline (§5.2): only the completion ACK flows back.
	p := DefaultParams(1000)
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	net := fabric.New(eng, topo.NewStar(2), cfg)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100 * 1000, Pkts: 100}
	snd := NewSender(net.NIC(0), flow, p, nil)
	rcv := NewReceiver(net.NIC(1), flow, p, nil)
	net.NIC(1).AttachSink(flow.ID, rcv)
	net.NIC(0).AttachSource(snd)
	eng.RunUntil(sim.Time(100 * sim.Millisecond))

	if !flow.Finished {
		t.Fatal("did not finish")
	}
	if net.Stats().CtrlDeliv != 1 {
		t.Errorf("control packets delivered = %d, want 1 (completion only)", net.Stats().CtrlDeliv)
	}
}

func TestGoBackNOnLoss(t *testing.T) {
	p := DefaultParams(1000)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.PSN == 10 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, rcv, _, doneAt := runOverFabric(t, p, false, 300, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits < 20 {
		t.Errorf("go-back-N retransmits = %d; expected the whole in-flight window", snd.Stats.Retransmits)
	}
	if rcv.Nacks == 0 {
		t.Error("receiver never NACKed")
	}
	if rcv.TimeoutNacks != 0 {
		t.Error("NACK-driven recovery should not need the stall timer")
	}
}

func TestTailLossRecoversViaTimeoutNack(t *testing.T) {
	p := DefaultParams(1000)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.Last && !dropped {
			dropped = true
			return true
		}
		return false
	}
	_, rcv, _, doneAt := runOverFabric(t, p, false, 50, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if rcv.TimeoutNacks == 0 {
		t.Error("tail loss must recover via the stall timer")
	}
	// RTOHigh-scale recovery: well above the lossless FCT, which is the
	// penalty §4.1 describes for RoCE's fixed high timeout.
	if doneAt < sim.Time(p.RTOHigh) {
		t.Errorf("FCT %v suspiciously fast for a timeout recovery", sim.Duration(doneAt))
	}
}

func TestTimeoutDisabledUnderPFC(t *testing.T) {
	p := DefaultParams(1000)
	p.DisableTimeout = true
	snd, rcv, net, doneAt := runOverFabric(t, p, true, 500, nil)
	if doneAt == 0 {
		t.Fatal("flow did not complete under PFC")
	}
	if rcv.TimeoutNacks != 0 {
		t.Errorf("timeout NACKs = %d with timeouts disabled", rcv.TimeoutNacks)
	}
	if snd.Stats.Retransmits != 0 {
		t.Errorf("retransmits = %d under PFC", snd.Stats.Retransmits)
	}
	if net.Stats().Drops != 0 {
		t.Errorf("drops = %d under PFC", net.Stats().Drops)
	}
}

func TestPerPacketAckMode(t *testing.T) {
	p := DefaultParams(1000)
	p.PerPacketAck = true
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	net := fabric.New(eng, topo.NewStar(2), cfg)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 100 * 1000, Pkts: 100}
	snd := NewSender(net.NIC(0), flow, p, nil)
	rcv := NewReceiver(net.NIC(1), flow, p, nil)
	net.NIC(1).AttachSink(flow.ID, rcv)
	net.NIC(0).AttachSource(snd)
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !flow.Finished {
		t.Fatal("did not finish")
	}
	if net.Stats().CtrlDeliv < 90 {
		t.Errorf("per-packet ACK mode delivered only %d control packets", net.Stats().CtrlDeliv)
	}
	_ = snd
}

func TestDuplicateAfterCompletionReAcks(t *testing.T) {
	// If the completion ACK is lost, the sender's next stall probe (here:
	// a duplicate triggered by the receiver's own timeout NACK) elicits a
	// fresh completion ACK. Simulate by dropping the first completion.
	p := DefaultParams(1000)
	droppedAck := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeAck && !droppedAck {
			droppedAck = true
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, false, 20, lossFn)
	if doneAt == 0 {
		t.Fatal("receiver never completed")
	}
	if !snd.Done() {
		t.Error("sender must eventually learn of completion despite the lost ACK")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, sim.Time) {
		p := DefaultParams(1000)
		rng := sim.NewRNG(3)
		lossFn := func(pkt *packet.Packet) bool {
			return pkt.Type == packet.TypeData && rng.Float64() < 0.01
		}
		snd, _, _, doneAt := runOverFabric(t, p, false, 400, lossFn)
		return snd.Stats.Sent, doneAt
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", s1, d1, s2, d2)
	}
}

// doneFn adapts a closure to transport.Completer, dropping the flow.
func doneFn(f func(now sim.Time)) transport.Completer {
	return transport.CompleterFunc(func(_ *transport.Flow, now sim.Time) { f(now) })
}

// ackSpy is a Controller that records the ACKs reaching it.
type ackSpy struct {
	transport.None
	acks int
	rtt  sim.Duration
}

func (c *ackSpy) OnAck(_ sim.Time, rtt sim.Duration, _ int, _ bool) { c.acks++; c.rtt = rtt }

// TestAckOfPacketSentAtZeroReachesController: a send time of 0 is a time,
// not a missing timestamp. A one-packet flow sent at t = 0 is acknowledged
// by an ACK echoing SentAt 0, and that ACK reaches the controller.
func TestAckOfPacketSentAtZeroReachesController(t *testing.T) {
	eng := sim.NewEngine()
	net := fabric.New(eng, topo.NewStar(2), fabric.DefaultConfig())
	p := DefaultParams(1000)
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: p.MTU, Pkts: 1}
	spy := new(ackSpy)
	snd := NewSender(net.NIC(0), flow, p, spy)
	net.NIC(1).AttachSink(flow.ID, NewReceiver(net.NIC(1), flow, p, nil))
	net.NIC(0).AttachSource(snd)
	eng.RunUntil(sim.Time(sim.Millisecond))
	if !snd.Done() {
		t.Fatal("flow did not complete")
	}
	if spy.acks != 1 || spy.rtt <= 0 {
		t.Errorf("controller saw %d ACKs, RTT %v; want the completion ACK with its RTT", spy.acks, spy.rtt)
	}
}
