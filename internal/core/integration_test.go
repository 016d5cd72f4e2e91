package core

import (
	"testing"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/transport/transporttest"
)

// runOverFabric wires one IRN flow across a 2-host star and runs to
// completion (or the deadline). lossFn may be nil.
func runOverFabric(t *testing.T, p Params, ctrl transport.Controller, pkts int,
	lossFn func(*packet.Packet) bool) (*Sender, *Receiver, *fabric.Network, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, topo.NewStar(2), fabric.DefaultConfig())

	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * p.MTU, Pkts: pkts}
	snd := NewSender(net.NIC(0), flow, p, ctrl)
	var doneAt sim.Time
	rcv := NewReceiver(net.NIC(1), flow, p, doneFn(func(now sim.Time) { doneAt = now }))
	net.NIC(1).AttachSink(flow.ID, transporttest.Sink(rcv, lossFn))
	net.NIC(0).AttachSource(transporttest.Source(snd, lossFn))

	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	return snd, rcv, net, doneAt
}

func TestLosslessTransferCompletes(t *testing.T) {
	p := DefaultParams(1000, 113)
	snd, rcv, net, doneAt := runOverFabric(t, p, nil, 500, nil)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits != 0 || snd.Stats.Timeouts != 0 {
		t.Errorf("lossless run had %d retransmits, %d timeouts", snd.Stats.Retransmits, snd.Stats.Timeouts)
	}
	if rcv.Received() != 500 {
		t.Errorf("received %d", rcv.Received())
	}
	// Sanity: per-packet ACKs flowed.
	if rcv.Acks != 500 {
		t.Errorf("acks = %d, want 500", rcv.Acks)
	}
	// FCT must beat a naive serial (unpipelined) bound and respect the
	// ideal lower bound.
	ideal := net.IdealFCT(0, 1, 500*1000)
	if sim.Duration(doneAt) < ideal {
		t.Errorf("FCT %v below ideal %v", sim.Duration(doneAt), ideal)
	}
	if sim.Duration(doneAt) > 2*ideal {
		t.Errorf("FCT %v more than 2x ideal %v on an empty network", sim.Duration(doneAt), ideal)
	}
}

func TestSingleLossRecoversViaSACK(t *testing.T) {
	p := DefaultParams(1000, 113)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.PSN == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 300, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want exactly 1 (selective)", snd.Stats.Retransmits)
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d; NACK recovery should beat the RTO", snd.Stats.Timeouts)
	}
}

func TestBurstLossRecoversSelectively(t *testing.T) {
	// Drop 10 scattered packets once each. SACK recovery retransmits
	// each of them; a handful of duplicates are permitted when recovery
	// re-enters with a new recovery sequence (the paper's rule: on each
	// recovery entry the cumulative-ack packet is retransmitted first),
	// but nothing near go-back-N's full-window redundancy.
	p := DefaultParams(1000, 113)
	drops := map[packet.PSN]bool{}
	for _, psn := range []packet.PSN{3, 9, 17, 31, 42, 55, 60, 71, 88, 99} {
		drops[psn] = true
	}
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && drops[pkt.PSN] {
			delete(drops, pkt.PSN)
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 300, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Retransmits < 10 {
		t.Errorf("Retransmits = %d, want >= 10 (every loss repaired)", snd.Stats.Retransmits)
	}
	if snd.Stats.Retransmits > 20 {
		t.Errorf("Retransmits = %d, selective recovery should stay near 10", snd.Stats.Retransmits)
	}
	if snd.Stats.Timeouts != 0 {
		t.Errorf("timeouts = %d, SACK recovery should avoid RTOs here", snd.Stats.Timeouts)
	}
}

func TestLastPacketLossRecoversViaRTOLow(t *testing.T) {
	p := DefaultParams(1000, 113)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.Last && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 50, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete")
	}
	if snd.Stats.Timeouts == 0 {
		t.Error("tail loss must recover via timeout")
	}
	// The timeout should have been RTOLow (few packets in flight), so
	// total time stays well under RTOHigh + transfer time.
	if doneAt > sim.Time(60*sim.Microsecond+2*p.RTOLow) {
		t.Errorf("tail-loss FCT %v too slow for RTOLow recovery", sim.Duration(doneAt))
	}
}

func TestSinglePacketMessageLossRecovery(t *testing.T) {
	p := DefaultParams(1000, 113)
	dropped := false
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 1, lossFn)
	if doneAt == 0 {
		t.Fatal("single-packet flow did not complete")
	}
	if snd.Stats.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", snd.Stats.Timeouts)
	}
	// RTOLow (100 µs) + one RTT, with margin.
	if doneAt > sim.Time(120*sim.Microsecond) {
		t.Errorf("FCT %v too slow; RTOLow should bound tail latency", sim.Duration(doneAt))
	}
}

func TestGoBackNRedundantRetransmissions(t *testing.T) {
	// The same single loss under go-back-N retransmits everything sent
	// after the hole — the §4.2.3 pathology. Compare directly against
	// SACK recovery under an identical loss pattern.
	mkLoss := func() func(*packet.Packet) bool {
		dropped := false
		return func(pkt *packet.Packet) bool {
			if pkt.Type == packet.TypeData && pkt.PSN == 5 && !dropped {
				dropped = true
				return true
			}
			return false
		}
	}
	pSack := DefaultParams(1000, 113)
	sackSnd, _, _, sackDone := runOverFabric(t, pSack, nil, 300, mkLoss())

	pGBN := DefaultParams(1000, 113)
	pGBN.Recovery = RecoveryGoBackN
	gbnSnd, _, _, gbnDone := runOverFabric(t, pGBN, nil, 300, mkLoss())

	if sackDone == 0 || gbnDone == 0 {
		t.Fatal("flows did not complete")
	}
	// SACK: 1 retransmission. GBN: everything in flight behind the hole
	// (tens of packets at this bandwidth-delay product).
	if gbnSnd.Stats.Sent < sackSnd.Stats.Sent+20 {
		t.Errorf("go-back-N sent %d vs SACK %d; expected >= %d",
			gbnSnd.Stats.Sent, sackSnd.Stats.Sent, sackSnd.Stats.Sent+20)
	}
}

func TestSACKBeatsNoSACKUnderMultipleLosses(t *testing.T) {
	mkLoss := func() func(*packet.Packet) bool {
		drops := map[packet.PSN]bool{5: true, 6: true, 7: true, 8: true, 20: true, 40: true}
		return func(pkt *packet.Packet) bool {
			if pkt.Type == packet.TypeData && drops[pkt.PSN] {
				delete(drops, pkt.PSN)
				return true
			}
			return false
		}
	}
	pSack := DefaultParams(1000, 113)
	_, _, _, sackDone := runOverFabric(t, pSack, nil, 200, mkLoss())

	pNo := DefaultParams(1000, 113)
	pNo.Recovery = RecoveryNoSACK
	_, _, _, noDone := runOverFabric(t, pNo, nil, 200, mkLoss())

	if sackDone == 0 || noDone == 0 {
		t.Fatal("flows did not complete")
	}
	if noDone <= sackDone {
		t.Errorf("NoSACK (%v) should be slower than SACK (%v) with multiple losses",
			sim.Duration(noDone), sim.Duration(sackDone))
	}
}

func TestAckLossIsHarmless(t *testing.T) {
	// Dropping every third ACK must not prevent completion (cumulative
	// acks are self-repairing) nor trigger mass retransmission.
	p := DefaultParams(1000, 113)
	n := 0
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeAck {
			n++
			return n%3 == 0
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 300, lossFn)
	if doneAt == 0 {
		t.Fatal("flow did not complete despite ACK losses")
	}
	if snd.Stats.Retransmits > 5 {
		t.Errorf("ACK losses caused %d retransmits", snd.Stats.Retransmits)
	}
}

func TestBDPFCBoundsReceiverBuffering(t *testing.T) {
	// With BDP-FC, the receiver never tracks more than BDPCap packets of
	// out-of-order state — the §6.1 memory argument. Drop the very first
	// packet and watch the OOO buildup while the window drains.
	p := DefaultParams(1000, 50)
	dropped := false
	maxOOO := 0
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && pkt.PSN == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, topo.NewStar(2), fabric.DefaultConfig())
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 500 * 1000, Pkts: 500}
	snd := NewSender(net.NIC(0), flow, p, nil)
	rcv := NewReceiver(net.NIC(1), flow, p, nil)
	probe := sinkProbe{rcv: rcv, maxOOO: &maxOOO}
	net.NIC(1).AttachSink(flow.ID, transporttest.Sink(probe, lossFn))
	net.NIC(0).AttachSource(snd)
	eng.RunUntil(sim.Time(100 * sim.Millisecond))

	if !flow.Finished {
		t.Fatal("flow did not complete")
	}
	if maxOOO > 50 {
		t.Errorf("receiver OOO state reached %d packets, above the BDP cap 50", maxOOO)
	}
}

// sinkProbe wraps a Receiver, tracking the largest out-of-order window
// (received − delivered-in-order distance).
type sinkProbe struct {
	rcv    *Receiver
	maxOOO *int
}

func (p sinkProbe) HandleData(pkt *packet.Packet, now sim.Time) {
	p.rcv.HandleData(pkt, now)
	ooo := p.rcv.Received() - int(p.rcv.Expected())
	if ooo < 0 {
		ooo = 0
	}
	if ooo > *p.maxOOO {
		*p.maxOOO = ooo
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, sim.Time) {
		p := DefaultParams(1000, 113)
		rng := sim.NewRNG(7)
		lossFn := func(pkt *packet.Packet) bool {
			return pkt.Type == packet.TypeData && rng.Float64() < 0.02
		}
		snd, _, _, doneAt := runOverFabric(t, p, nil, 500, lossFn)
		return snd.Stats.Sent, doneAt
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("identical seeds diverged: (%d,%d) vs (%d,%d)", s1, d1, s2, d2)
	}
}

func TestRetxFetchDelayImposed(t *testing.T) {
	p := DefaultParams(1000, 113)
	p.RetxFetchDelay = 2 * sim.Microsecond
	drops := map[packet.PSN]bool{5: true, 6: true, 7: true}
	lossFn := func(pkt *packet.Packet) bool {
		if pkt.Type == packet.TypeData && drops[pkt.PSN] {
			delete(drops, pkt.PSN)
			return true
		}
		return false
	}
	snd, _, _, doneAt := runOverFabric(t, p, nil, 100, lossFn)
	if doneAt == 0 {
		t.Fatal("did not complete")
	}
	if snd.Stats.Retransmits != 3 {
		t.Errorf("Retransmits = %d", snd.Stats.Retransmits)
	}
}

func TestExtraHeaderOverheadSlowsTransfer(t *testing.T) {
	p1 := DefaultParams(1000, 113)
	_, _, _, base := runOverFabric(t, p1, nil, 2000, nil)
	p2 := DefaultParams(1000, 113)
	p2.ExtraHeaderBytes = 16
	_, _, _, withHdr := runOverFabric(t, p2, nil, 2000, nil)
	if withHdr <= base {
		t.Errorf("16B/packet overhead should slow the transfer: %v vs %v", withHdr, base)
	}
	// But only by roughly 16/1062 ≈ 1.5%.
	ratio := float64(withHdr) / float64(base)
	if ratio > 1.05 {
		t.Errorf("overhead ratio %v too large", ratio)
	}
}

func TestNackThresholdToleratesReordering(t *testing.T) {
	// §7: "IRN's loss recovery mechanism can be made more robust to
	// reordering by triggering loss recovery only after a certain
	// threshold of NACKs are received." Swap adjacent packets in flight
	// (no losses) and compare spurious retransmissions.
	run := func(threshold int) uint64 {
		eng := sim.NewEngine()
		cfg := fabric.DefaultConfig()
		net := fabric.New(eng, topo.NewStar(2), cfg)

		p := DefaultParams(1000, 113)
		p.NackThreshold = threshold
		flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 400 * 1000, Pkts: 400}
		snd := NewSender(net.NIC(0), flow, p, nil)
		rcv := NewReceiver(net.NIC(1), flow, p, nil)
		// Reorder by swapping delivery of every 20th packet with its
		// successor: the sink sees ... 19, 21, 20, 22 ...  The held packet
		// must be copied: the NIC returns the original to the fabric's
		// packet pool as soon as HandleData returns, so retaining the
		// pointer would alias a recycled packet.
		var held *packet.Packet
		swapper := sinkFunc2(func(pkt *packet.Packet, now sim.Time) {
			switch {
			case held != nil:
				rcv.HandleData(pkt, now)
				rcv.HandleData(held, now)
				held = nil
			case pkt.PSN%20 == 19 && !pkt.Last:
				cp := *pkt
				held = &cp
			default:
				rcv.HandleData(pkt, now)
			}
		})
		net.NIC(1).AttachSink(flow.ID, swapper)
		net.NIC(0).AttachSource(snd)
		eng.RunUntil(sim.Time(100 * sim.Millisecond))
		if !flow.Finished {
			t.Fatalf("threshold=%d: flow did not complete", threshold)
		}
		return snd.Stats.Retransmits
	}

	eager := run(1)
	tolerant := run(3)
	if eager == 0 {
		t.Error("threshold=1 should retransmit spuriously under reordering")
	}
	if tolerant != 0 {
		t.Errorf("threshold=3 retransmitted %d times under pure reordering", tolerant)
	}
}

// sinkFunc2 adapts a function to transport.Sink.
type sinkFunc2 func(*packet.Packet, sim.Time)

func (f sinkFunc2) HandleData(p *packet.Packet, now sim.Time) { f(p, now) }

func TestRandomizedFlowsAlwaysComplete(t *testing.T) {
	// Property: for random flow sizes, loss rates and recovery modes,
	// the transfer always completes and the receiver sees every packet
	// exactly once (no livelock, no lost completion).
	modes := []RecoveryMode{RecoverySACK, RecoveryGoBackN, RecoveryNoSACK}
	rng := sim.NewRNG(20260611)
	for trial := 0; trial < 25; trial++ {
		pkts := 1 + rng.Intn(400)
		lossPct := rng.Float64() * 0.08
		mode := modes[rng.Intn(len(modes))]
		lossRng := sim.NewRNG(rng.Uint64())
		lossFn := func(pkt *packet.Packet) bool {
			return pkt.Type == packet.TypeData && lossRng.Float64() < lossPct
		}
		p := DefaultParams(1000, 113)
		p.Recovery = mode
		snd, rcv, _, doneAt := runOverFabric(t, p, nil, pkts, lossFn)
		if doneAt == 0 {
			t.Fatalf("trial %d (pkts=%d loss=%.2f mode=%v): did not complete (recv %d, retx %d, to %d)",
				trial, pkts, lossPct, mode, rcv.Received(), snd.Stats.Retransmits, snd.Stats.Timeouts)
		}
		if rcv.Received() != pkts {
			t.Fatalf("trial %d: received %d, want %d", trial, rcv.Received(), pkts)
		}
		if !snd.Done() {
			t.Fatalf("trial %d: sender not done after completion", trial)
		}
	}
}
