package core

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// stubEP is a transport.Endpoint that records control packets.
type stubEP struct {
	eng   *sim.Engine
	sent  []*packet.Packet
	wakes int
}

func newStubEP() *stubEP { return &stubEP{eng: sim.NewEngine()} }

func (e *stubEP) Now() sim.Time                  { return e.eng.Now() }
func (e *stubEP) Clock() *sim.Clock              { return nil }
func (e *stubEP) Pool() *packet.Pool             { return nil }
func (e *stubEP) Engine() *sim.Engine            { return e.eng }
func (e *stubEP) SendControl(pkt *packet.Packet) { e.sent = append(e.sent, pkt) }
func (e *stubEP) Wake()                          { e.wakes++ }
func (e *stubEP) take() []*packet.Packet         { s := e.sent; e.sent = nil; return s }

func testParams() Params {
	return DefaultParams(1000, 110)
}

func mkFlow(pkts int) *transport.Flow {
	return &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * 1000, Pkts: pkts}
}

// drain pulls every packet the sender is willing to emit right now.
func drain(s *Sender, now sim.Time) []*packet.Packet {
	var out []*packet.Packet
	for {
		ready, _ := s.HasData(now)
		if !ready {
			return out
		}
		p := s.NextPacket(now)
		if p == nil {
			return out
		}
		out = append(out, p)
	}
}

func TestSenderRespectsBDPFC(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.BDPCap = 10
	s := NewSender(ep, mkFlow(100), p, nil)

	pkts := drain(s, 0)
	if len(pkts) != 10 {
		t.Fatalf("sent %d packets with BDPCap=10", len(pkts))
	}
	// An ack for 4 packets opens exactly 4 slots.
	ack := packet.NewAck(1, 1, 0, 4)
	ack.SentAt = 1
	s.HandleControl(ack, sim.Time(10*sim.Microsecond))
	pkts = drain(s, sim.Time(10*sim.Microsecond))
	if len(pkts) != 4 {
		t.Fatalf("window opened %d slots, want 4", len(pkts))
	}
	if pkts[0].PSN != 10 {
		t.Errorf("first new PSN = %d, want 10", pkts[0].PSN)
	}
}

func TestSenderNoBDPFCSendsEverything(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.BDPCap = 0 // ablation: no BDP-FC
	s := NewSender(ep, mkFlow(500), p, nil)
	if got := len(drain(s, 0)); got != 500 {
		t.Fatalf("sent %d, want all 500 without BDP-FC", got)
	}
}

func TestSenderCCWindowApplies(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	s := NewSender(ep, mkFlow(100), p, fixedWindow(7))
	if got := len(drain(s, 0)); got != 7 {
		t.Fatalf("sent %d, want 7 (CC window)", got)
	}
}

// fixedWindow is a Controller with a constant window.
type fixedWindow int

func (fixedWindow) OnAck(sim.Time, sim.Duration, int, bool) {}
func (fixedWindow) OnCNP(sim.Time)                          {}
func (fixedWindow) OnLoss(sim.Time)                         {}
func (fixedWindow) SendDelay(int) sim.Duration              { return 0 }
func (w fixedWindow) WindowPackets() int                    { return int(w) }

func TestSenderPacingDelays(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	s := NewSender(ep, mkFlow(10), p, pacer(1000)) // 1000 ps per packet send
	ready, _ := s.HasData(0)
	if !ready {
		t.Fatal("should be ready at t=0")
	}
	s.NextPacket(0)
	ready, at := s.HasData(0)
	if ready {
		t.Fatal("must be paced after send")
	}
	if at != 1000 {
		t.Fatalf("wake at %d, want 1000", int64(at))
	}
	ready, _ = s.HasData(1000)
	if !ready {
		t.Fatal("pacing must expire")
	}
}

// pacer is a Controller with a fixed per-send delay in ps.
type pacer sim.Duration

func (pacer) OnAck(sim.Time, sim.Duration, int, bool) {}
func (pacer) OnCNP(sim.Time)                          {}
func (pacer) OnLoss(sim.Time)                         {}
func (p pacer) SendDelay(int) sim.Duration            { return sim.Duration(p) }
func (pacer) WindowPackets() int                      { return 0 }

func TestSenderSelectiveRetransmitOrder(t *testing.T) {
	// Holes at 2 and 5, SACKs up to 7: recovery must retransmit exactly
	// 2 then 5, then resume new transmission.
	ep := newStubEP()
	p := testParams()
	p.BDPCap = 20
	s := NewSender(ep, mkFlow(100), p, nil)
	drain(s, 0) // sends 0..19

	// Receiver got 0,1 then 3,4 (NACK sack=3, then 4), then 6,7 (sack 6,7).
	nack := func(cum, sack packet.PSN, at sim.Time) {
		n := packet.NewNack(1, 1, 0, cum, sack)
		n.SentAt = 1
		s.HandleControl(n, at)
	}
	nack(2, 3, 100)
	if !s.sb.InRecovery() {
		t.Fatal("NACK must enter recovery")
	}
	nack(2, 4, 200)
	nack(2, 6, 300)
	nack(2, 7, 400)

	pkts := drain(s, 500)
	if len(pkts) < 2 {
		t.Fatalf("drained %d packets, want >= 2", len(pkts))
	}
	if pkts[0].PSN != 2 {
		t.Errorf("first retransmission PSN = %d, want 2 (the cumulative ack)", pkts[0].PSN)
	}
	if pkts[1].PSN != 5 {
		t.Errorf("second retransmission PSN = %d, want 5 (hole below highest SACK)", pkts[1].PSN)
	}
	// Everything after the holes is new transmission (BDP-FC window: the
	// cum ack is still 2, so inflight limits apply).
	for _, pk := range pkts[2:] {
		if pk.PSN < 20 {
			t.Errorf("unexpected retransmission of PSN %d", pk.PSN)
		}
	}
	if s.Stats.Retransmits != 2 {
		t.Errorf("Retransmits = %d, want 2", s.Stats.Retransmits)
	}
}

func TestSenderExitsRecoveryPastRecoverySeq(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.BDPCap = 10
	s := NewSender(ep, mkFlow(100), p, nil)
	drain(s, 0) // 0..9 in flight; recoverySeq will be 9

	nack := packet.NewNack(1, 1, 0, 3, 5)
	nack.SentAt = 1
	s.HandleControl(nack, 100)
	if !s.sb.InRecovery() || s.sb.RecoverySeq() != 9 {
		t.Fatalf("recovery state: in=%v seq=%d", s.sb.InRecovery(), s.sb.RecoverySeq())
	}
	// Cumulative ack up to 9 (== recoverySeq) keeps recovery; must
	// exceed it.
	ack := packet.NewAck(1, 1, 0, 9)
	ack.SentAt = 1
	s.HandleControl(ack, 200)
	if !s.sb.InRecovery() {
		t.Fatal("cum == recoverySeq must not exit recovery")
	}
	ack2 := packet.NewAck(1, 1, 0, 10)
	ack2.SentAt = 1
	s.HandleControl(ack2, 300)
	if s.sb.InRecovery() {
		t.Fatal("cum > recoverySeq must exit recovery")
	}
}

func TestSenderGoBackNRewinds(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.Recovery = RecoveryGoBackN
	p.BDPCap = 10
	s := NewSender(ep, mkFlow(50), p, nil)
	first := drain(s, 0)
	if len(first) != 10 {
		t.Fatalf("initial burst %d", len(first))
	}
	nack := packet.NewNack(1, 1, 0, 4, 0)
	nack.SentAt = 1
	s.HandleControl(nack, 100)
	pkts := drain(s, 100)
	if len(pkts) == 0 || pkts[0].PSN != 4 {
		t.Fatalf("go-back-N must rewind to 4, got %v", pkts)
	}
	// Everything from 4 is resent in order.
	for i, pk := range pkts {
		if pk.PSN != packet.PSN(4+i) {
			t.Errorf("packet %d PSN = %d, want %d", i, pk.PSN, 4+i)
		}
	}
}

func TestSenderNoSACKRetransmitsOnlyCumAck(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.Recovery = RecoveryNoSACK
	p.BDPCap = 20
	s := NewSender(ep, mkFlow(100), p, nil)
	drain(s, 0)

	nack := packet.NewNack(1, 1, 0, 2, 7)
	nack.SentAt = 1
	s.HandleControl(nack, 100)
	pkts := drain(s, 100)
	if len(pkts) == 0 || pkts[0].PSN != 2 {
		t.Fatalf("first retransmission must be 2, got %v", pkts)
	}
	for _, pk := range pkts[1:] {
		if pk.PSN < 20 {
			t.Errorf("NoSACK mode retransmitted %d beyond the cum ack", pk.PSN)
		}
	}
	// A second NACK with the same cum ack must not retransmit again.
	s.HandleControl(nack, 200)
	pkts = drain(s, 200)
	for _, pk := range pkts {
		if pk.PSN < 20 {
			t.Errorf("duplicate NACK retransmitted %d", pk.PSN)
		}
	}
	// But advancing the cum ack to the next hole does.
	n2 := packet.NewNack(1, 1, 0, 5, 9)
	n2.SentAt = 1
	s.HandleControl(n2, 300)
	pkts = drain(s, 300)
	if len(pkts) == 0 || pkts[0].PSN != 5 {
		t.Fatalf("next hole must be retransmitted after cum advance, got %v", pkts)
	}
}

func TestSenderNackThreshold(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.NackThreshold = 3
	p.BDPCap = 20
	s := NewSender(ep, mkFlow(100), p, nil)
	drain(s, 0)

	nack := func(at sim.Time, sack packet.PSN) {
		n := packet.NewNack(1, 1, 0, 2, sack)
		n.SentAt = 1
		s.HandleControl(n, at)
	}
	nack(100, 3)
	nack(200, 4)
	if s.sb.InRecovery() {
		t.Fatal("recovery before threshold")
	}
	nack(300, 5)
	if !s.sb.InRecovery() {
		t.Fatal("recovery must engage at the third NACK")
	}
}

func TestSenderTimeoutEntersRecovery(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	s := NewSender(ep, mkFlow(5), p, nil)
	drain(s, 0)
	// Run the engine past RTOHigh (5 packets in flight ≥ N=3).
	ep.eng.RunUntil(sim.Time(p.RTOHigh) + 1000)
	if s.Stats.Timeouts == 0 {
		t.Fatal("timeout did not fire")
	}
	if !s.sb.InRecovery() {
		t.Fatal("timeout must enter recovery")
	}
	pkts := drain(s, ep.eng.Now())
	if len(pkts) == 0 || pkts[0].PSN != 0 {
		t.Fatalf("timeout must retransmit the cumulative ack, got %v", pkts)
	}
}

func TestSenderRTOLowForFewPackets(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	s := NewSender(ep, mkFlow(2), p, nil) // 2 < N=3 → RTOLow
	drain(s, 0)
	ep.eng.RunUntil(sim.Time(p.RTOLow) + 1000)
	if s.Stats.Timeouts == 0 {
		t.Fatal("RTOLow timeout did not fire for a short message")
	}
}

func TestSenderRTOHighForManyPackets(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	s := NewSender(ep, mkFlow(50), p, nil)
	drain(s, 0)
	// After RTOLow but before RTOHigh: no timeout yet.
	ep.eng.RunUntil(sim.Time(p.RTOLow) + 1000)
	if s.Stats.Timeouts != 0 {
		t.Fatal("RTOLow fired despite many packets in flight")
	}
	ep.eng.RunUntil(sim.Time(p.RTOHigh) + 1000)
	if s.Stats.Timeouts == 0 {
		t.Fatal("RTOHigh did not fire")
	}
}

func TestSenderDynamicRTO(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.DynamicRTO = true
	s := NewSender(ep, mkFlow(100), p, nil)
	if s.rtoDuration() != p.RTOHigh {
		t.Error("dynamic RTO before samples must fall back to RTOHigh")
	}
	// Feed a stable 50 µs RTT.
	for i := 0; i < 20; i++ {
		s.rtt.Sample(50 * sim.Microsecond)
	}
	rto := s.rtoDuration()
	if rto < 50*sim.Microsecond || rto > 200*sim.Microsecond {
		t.Errorf("dynamic RTO = %v, want ~[50us, 200us]", rto)
	}
}

func TestSenderDoneAfterFullAck(t *testing.T) {
	ep := newStubEP()
	s := NewSender(ep, mkFlow(3), testParams(), nil)
	drain(s, 0)
	ack := packet.NewAck(1, 1, 0, 3)
	ack.SentAt = 1
	s.HandleControl(ack, 100)
	if !s.Done() {
		t.Fatal("sender not done after full ack")
	}
	ready, _ := s.HasData(200)
	if ready {
		t.Error("done sender must not offer data")
	}
	// The RTO must be disarmed: running the engine forward fires nothing.
	before := s.Stats.Timeouts
	ep.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if s.Stats.Timeouts != before {
		t.Error("timer fired after done")
	}
}

func TestSenderStaleAckIgnored(t *testing.T) {
	ep := newStubEP()
	s := NewSender(ep, mkFlow(50), testParams(), nil)
	drain(s, 0)
	a1 := packet.NewAck(1, 1, 0, 10)
	a1.SentAt = 1
	s.HandleControl(a1, 100)
	// A reordered, stale cumulative ack must not move anything backwards.
	a2 := packet.NewAck(1, 1, 0, 4)
	a2.SentAt = 1
	s.HandleControl(a2, 200)
	if s.sb.Cum() != 10 {
		t.Errorf("cumAck = %d, want 10", s.sb.Cum())
	}
}

func TestReceiverInOrderAcksEveryPacket(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	var doneAt sim.Time
	r := NewReceiver(ep, mkFlow(3), p, doneFn(func(now sim.Time) { doneAt = now }))
	for i := 0; i < 3; i++ {
		pkt := packet.NewData(1, 0, 1, packet.PSN(i), 1000, i == 2)
		pkt.SentAt = sim.Time(i + 1)
		r.HandleData(pkt, sim.Time(100*(i+1)))
	}
	acks := ep.take()
	if len(acks) != 3 {
		t.Fatalf("acks = %d, want 3 (per-packet)", len(acks))
	}
	for i, a := range acks {
		if a.Type != packet.TypeAck || a.CumAck != packet.PSN(i+1) {
			t.Errorf("ack %d: %v cum=%d", i, a.Type, a.CumAck)
		}
	}
	if doneAt != 300 {
		t.Errorf("completion at %d, want 300", int64(doneAt))
	}
	if r.Expected() != 3 {
		t.Errorf("expected = %d", r.Expected())
	}
}

func TestReceiverOONackCarriesCumAndSack(t *testing.T) {
	ep := newStubEP()
	r := NewReceiver(ep, mkFlow(10), testParams(), nil)
	// Deliver 0, then 3 (gap at 1,2).
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 10)
	ep.take()
	r.HandleData(packet.NewData(1, 0, 1, 3, 1000, false), 20)
	out := ep.take()
	if len(out) != 1 || out[0].Type != packet.TypeNack {
		t.Fatalf("want 1 NACK, got %v", out)
	}
	if out[0].CumAck != 1 || out[0].SackPSN != 3 {
		t.Errorf("NACK cum=%d sack=%d, want 1/3", out[0].CumAck, out[0].SackPSN)
	}
	// Every further OOO arrival NACKs again (§3.1).
	r.HandleData(packet.NewData(1, 0, 1, 5, 1000, false), 30)
	out = ep.take()
	if len(out) != 1 || out[0].Type != packet.TypeNack || out[0].SackPSN != 5 {
		t.Fatalf("second OOO must NACK with sack=5: %v", out)
	}
}

func TestReceiverFillsGapAndJumps(t *testing.T) {
	ep := newStubEP()
	r := NewReceiver(ep, mkFlow(5), testParams(), nil)
	for _, psn := range []packet.PSN{1, 2, 4} {
		r.HandleData(packet.NewData(1, 0, 1, psn, 1000, psn == 4), 10)
	}
	ep.take()
	// Delivering 0 should advance expected straight to 3.
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 20)
	out := ep.take()
	if len(out) != 1 || out[0].CumAck != 3 {
		t.Fatalf("cumulative jump: got %v", out)
	}
	// Then 3 completes the message (0..4).
	var done bool
	r.done = doneFn(func(sim.Time) { done = true })
	r.HandleData(packet.NewData(1, 0, 1, 3, 1000, false), 30)
	out = ep.take()
	if len(out) != 1 || out[0].CumAck != 5 {
		t.Fatalf("final ack: %v", out)
	}
	if !done {
		t.Error("completion must fire when all packets arrived")
	}
}

func TestReceiverKeepsOOOUnderGBNAblation(t *testing.T) {
	// The §4.3 go-back-N ablation changes only the sender; the receiver
	// still places out-of-order packets and NACKs every OOO arrival.
	ep := newStubEP()
	p := testParams()
	p.Recovery = RecoveryGoBackN
	r := NewReceiver(ep, mkFlow(10), p, nil)
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 10)
	ep.take()
	r.HandleData(packet.NewData(1, 0, 1, 2, 1000, false), 20)
	r.HandleData(packet.NewData(1, 0, 1, 3, 1000, false), 30)
	out := ep.take()
	if len(out) != 2 || out[0].Type != packet.TypeNack || out[1].Type != packet.TypeNack {
		t.Fatalf("want a NACK per OOO arrival, got %v", out)
	}
	if r.Received() != 3 {
		t.Errorf("received = %d; OOO must be kept", r.Received())
	}
	// Filling the hole advances past the buffered packets.
	r.HandleData(packet.NewData(1, 0, 1, 1, 1000, false), 40)
	out = ep.take()
	if len(out) != 1 || out[0].CumAck != 4 {
		t.Fatalf("cumulative jump: %v", out)
	}
}

func TestSenderGBNRewindsOnEveryNackInRecovery(t *testing.T) {
	ep := newStubEP()
	p := testParams()
	p.Recovery = RecoveryGoBackN
	p.BDPCap = 10
	s := NewSender(ep, mkFlow(50), p, nil)
	drain(s, 0) // 0..9
	nack := func(cum packet.PSN, at sim.Time) {
		n := packet.NewNack(1, 1, 0, cum, cum+1)
		n.SentAt = 1
		s.HandleControl(n, at)
	}
	nack(4, 100)
	got := drain(s, 100) // resends 4..9 then new 10..13 (window 10 from cum 4)
	if got[0].PSN != 4 {
		t.Fatalf("rewind to %d, want 4", got[0].PSN)
	}
	// A second NACK with the same cum while in recovery rewinds again.
	nack(4, 200)
	got = drain(s, 200)
	if len(got) == 0 || got[0].PSN != 4 {
		t.Fatalf("second NACK must rewind again, got %v", got)
	}
	if s.Stats.Retransmits < 10 {
		t.Errorf("Retransmits = %d, want >= 10 across two rewinds", s.Stats.Retransmits)
	}
}

func TestReceiverDuplicateReAcks(t *testing.T) {
	ep := newStubEP()
	r := NewReceiver(ep, mkFlow(5), testParams(), nil)
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 10)
	ep.take()
	r.HandleData(packet.NewData(1, 0, 1, 0, 1000, false), 20)
	out := ep.take()
	if len(out) != 1 || out[0].Type != packet.TypeAck || out[0].CumAck != 1 {
		t.Fatalf("duplicate must re-ACK cum=1: %v", out)
	}
	if r.Duplicates != 1 {
		t.Errorf("Duplicates = %d", r.Duplicates)
	}
}

func TestReceiverCNPGeneration(t *testing.T) {
	ep := newStubEP()
	r := NewReceiver(ep, mkFlow(1000), testParams(), nil)
	mk := func(psn packet.PSN, at sim.Time) {
		pkt := packet.NewData(1, 0, 1, psn, 1000, false)
		pkt.ECT, pkt.CE = true, true
		r.HandleData(pkt, at)
	}
	mk(0, 0)
	mk(1, sim.Time(10*sim.Microsecond))
	mk(2, sim.Time(60*sim.Microsecond))
	cnps := 0
	for _, p := range ep.take() {
		if p.Type == packet.TypeCNP {
			cnps++
		}
	}
	// 3 marked arrivals within 60 µs → 2 CNPs (50 µs min interval).
	if cnps != 2 {
		t.Errorf("CNPs = %d, want 2", cnps)
	}
}

func TestReceiverEchoesECNOnAcks(t *testing.T) {
	ep := newStubEP()
	r := NewReceiver(ep, mkFlow(5), testParams(), nil)
	pkt := packet.NewData(1, 0, 1, 0, 1000, false)
	pkt.ECT, pkt.CE = true, true
	pkt.SentAt = 5
	r.HandleData(pkt, 10)
	out := ep.take()
	// First control packet may be a CNP; find the ACK.
	var ack *packet.Packet
	for _, p := range out {
		if p.Type == packet.TypeAck {
			ack = p
		}
	}
	if ack == nil || !ack.ECNEcho {
		t.Fatalf("ACK must echo CE: %v", out)
	}
	if ack.SentAt != 5 {
		t.Errorf("ACK must echo SentAt for RTT: %v", ack.SentAt)
	}
}

// doneFn adapts a closure to transport.Completer, dropping the flow.
func doneFn(f func(now sim.Time)) transport.Completer {
	return transport.CompleterFunc(func(_ *transport.Flow, now sim.Time) { f(now) })
}
