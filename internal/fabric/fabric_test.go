package fabric

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// blaster is a minimal transport.Source that emits n packets back to back
// at line rate, ignoring all control traffic.
type blaster struct {
	flow *transport.Flow
	mtu  int
	sent int
}

func newBlaster(id packet.FlowID, src, dst packet.NodeID, pkts, mtu int) *blaster {
	return &blaster{
		flow: &transport.Flow{ID: id, Src: src, Dst: dst, Size: pkts * mtu, Pkts: pkts},
		mtu:  mtu,
	}
}

func (b *blaster) Flow() *transport.Flow { return b.flow }

func (b *blaster) HasData(sim.Time) (bool, sim.Time) { return b.sent < b.flow.Pkts, 0 }

func (b *blaster) NextPacket(now sim.Time) *packet.Packet {
	p := packet.NewData(b.flow.ID, b.flow.Src, b.flow.Dst, packet.PSN(b.sent), b.mtu, b.sent == b.flow.Pkts-1)
	p.SentAt = now
	b.sent++
	return p
}

func (b *blaster) HandleControl(*packet.Packet, sim.Time) {}

func (b *blaster) Done() bool { return b.sent >= b.flow.Pkts }

// recorder is a Sink that records arrival times and PSNs.
type recorder struct {
	times []sim.Time
	psns  []packet.PSN
}

func (r *recorder) HandleData(p *packet.Packet, now sim.Time) {
	r.times = append(r.times, now)
	r.psns = append(r.psns, p.PSN)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MTU = 1000
	return cfg
}

func TestGbpsConversions(t *testing.T) {
	cases := []struct {
		g    float64
		want Rate
	}{{40, 200}, {10, 800}, {100, 80}}
	for _, c := range cases {
		if got := Gbps(c.g); got != c.want {
			t.Errorf("Gbps(%v) = %d, want %d", c.g, got, c.want)
		}
	}
	if d := Gbps(40).Serialize(1000); d != 200_000 {
		t.Errorf("Serialize = %v ps, want 200000", int64(d))
	}
}

func TestBDPMatchesPaper(t *testing.T) {
	// §4.1: 40 Gbps links, 2 µs propagation, 6-hop longest path → 120 KB.
	bdp := BDPBytes(Gbps(40), 2*sim.Microsecond, 6)
	if bdp != 120_000 {
		t.Errorf("BDP = %d, want 120000", bdp)
	}
}

func TestBDPCapNear110(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewFatTree(6), testConfig())
	cap := net.BDPCap()
	// "This corresponds to ∼110 MTU-sized packets."
	if cap < 105 || cap > 120 {
		t.Errorf("BDPCap = %d, want ~110", cap)
	}
}

func TestPktQueue(t *testing.T) {
	var q packet.Queue
	if !q.Empty() || q.Len() != 0 || q.Pop() != nil {
		t.Fatal("fresh queue should be empty")
	}
	for i := 0; i < 200; i++ {
		q.Push(packet.NewData(1, 0, 1, packet.PSN(i), 100, false))
	}
	if q.Len() != 200 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 200; i++ {
		p := q.Pop()
		if p == nil || p.PSN != packet.PSN(i) {
			t.Fatalf("pop %d = %v", i, p)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty after draining")
	}
}

func TestPktQueueInterleaved(t *testing.T) {
	var q packet.Queue
	next, popped := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			q.Push(packet.NewData(1, 0, 1, packet.PSN(next), 10, false))
			next++
		}
		for i := 0; i < 7; i++ {
			p := q.Pop()
			if p.PSN != packet.PSN(popped) {
				t.Fatalf("pop order broken: got %d want %d", p.PSN, popped)
			}
			popped++
		}
	}
	if q.Len() != next-popped {
		t.Fatalf("len = %d, want %d", q.Len(), next-popped)
	}
}

func TestSinglePacketDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(2), cfg)

	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newBlaster(1, 0, 1, 1, cfg.MTU))
	eng.Run()

	if len(rec.times) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(rec.times))
	}
	// Store-and-forward across 2 hops: 2×serialization + 2×propagation.
	wire := cfg.MTU + packet.DataHeader
	want := sim.Time(2*int64(cfg.Rate.Serialize(wire)) + 2*int64(cfg.Prop))
	if rec.times[0] != want {
		t.Errorf("arrival = %d ps, want %d ps", int64(rec.times[0]), int64(want))
	}
	if net.Stats().Delivered != 1 || net.Stats().Drops != 0 {
		t.Errorf("stats: %+v", net.Stats())
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// A long stream across one switch should finish in about
	// N×serialization + one store-and-forward stage + 2 props.
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(2), cfg)

	const pkts = 1000
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newBlaster(1, 0, 1, pkts, cfg.MTU))
	eng.Run()

	if len(rec.times) != pkts {
		t.Fatalf("delivered %d packets, want %d", len(rec.times), pkts)
	}
	wire := cfg.MTU + packet.DataHeader
	ser := int64(cfg.Rate.Serialize(wire))
	want := pkts*ser + ser + 2*int64(cfg.Prop)
	got := int64(rec.times[len(rec.times)-1])
	if got != want {
		t.Errorf("last arrival = %d, want %d", got, want)
	}
}

func TestDropTailWithoutPFC(t *testing.T) {
	// Two hosts blast a third at line rate: the shared output port can
	// only drain half the offered load, the input buffers fill, and
	// drop-tail must engage.
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.PFC = false
	net := New(eng, topo.NewStar(3), cfg)

	rec := &recorder{}
	net.NIC(2).AttachSink(1, rec)
	net.NIC(2).AttachSink(2, rec)
	net.NIC(0).AttachSource(newBlaster(1, 0, 2, 2000, cfg.MTU))
	net.NIC(1).AttachSource(newBlaster(2, 1, 2, 2000, cfg.MTU))
	eng.Run()

	if net.Stats().Drops == 0 {
		t.Error("expected drops under 2:1 overload without PFC")
	}
	if len(rec.times)+int(net.Stats().Drops) != 4000 {
		t.Errorf("delivered %d + dropped %d != 4000", len(rec.times), net.Stats().Drops)
	}
}

func TestPFCPreventsDrops(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.PFC = true
	net := New(eng, topo.NewStar(3), cfg)

	rec := &recorder{}
	net.NIC(2).AttachSink(1, rec)
	net.NIC(2).AttachSink(2, rec)
	net.NIC(0).AttachSource(newBlaster(1, 0, 2, 2000, cfg.MTU))
	net.NIC(1).AttachSource(newBlaster(2, 1, 2, 2000, cfg.MTU))
	eng.Run()

	if net.Stats().Drops != 0 {
		t.Errorf("PFC enabled but %d drops", net.Stats().Drops)
	}
	if net.Stats().PauseFrames == 0 {
		t.Error("expected pause frames under overload")
	}
	if net.Stats().ResumeFrames == 0 {
		t.Error("expected resume frames as buffers drain")
	}
	if len(rec.times) != 4000 {
		t.Errorf("delivered %d, want all 4000", len(rec.times))
	}
}

func TestECNMarking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ECN = ECNConfig{Enabled: true, KMin: 5_000, KMax: 50_000, PMax: 1.0}
	net := New(eng, topo.NewStar(3), cfg)

	marked := 0
	counter := sinkFunc(func(p *packet.Packet, _ sim.Time) {
		if p.CE {
			marked++
		}
	})
	net.NIC(2).AttachSink(1, counter)
	net.NIC(2).AttachSink(2, counter)
	b1 := newBlaster(1, 0, 2, 1000, cfg.MTU)
	b2 := newBlaster(2, 1, 2, 1000, cfg.MTU)
	net.NIC(0).AttachSource(&ectSource{b1})
	net.NIC(1).AttachSource(&ectSource{b2})
	eng.Run()

	if marked == 0 {
		t.Error("no packets CE-marked despite persistent congestion")
	}
	if uint64(marked) != net.Stats().ECNMarked {
		t.Errorf("marked %d != stats %d", marked, net.Stats().ECNMarked)
	}
}

// ectSource wraps a blaster, setting ECT on every packet.
type ectSource struct{ *blaster }

func (e *ectSource) NextPacket(now sim.Time) *packet.Packet {
	p := e.blaster.NextPacket(now)
	p.ECT = true
	return p
}

type sinkFunc func(*packet.Packet, sim.Time)

func (f sinkFunc) HandleData(p *packet.Packet, now sim.Time) { f(p, now) }

func TestNICRoundRobinFairness(t *testing.T) {
	// Two equal flows sharing one NIC should finish within one packet
	// time of each other.
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(3), cfg)

	last := map[packet.FlowID]sim.Time{}
	mk := func(id packet.FlowID) transport.Sink {
		return sinkFunc(func(p *packet.Packet, now sim.Time) { last[id] = now })
	}
	net.NIC(1).AttachSink(1, mk(1))
	net.NIC(2).AttachSink(2, mk(2))
	net.NIC(0).AttachSource(newBlaster(1, 0, 1, 500, cfg.MTU))
	net.NIC(0).AttachSource(newBlaster(2, 0, 2, 500, cfg.MTU))
	eng.Run()

	diff := int64(last[1]) - int64(last[2])
	if diff < 0 {
		diff = -diff
	}
	wire := int64(cfg.Rate.Serialize(cfg.MTU + packet.DataHeader))
	if diff > 2*wire {
		t.Errorf("finish skew %d ps exceeds 2 packet times (%d ps)", diff, 2*wire)
	}
}

// ctrlObserver is a Source that never sends but records control arrivals.
type ctrlObserver struct {
	flow    *transport.Flow
	arrived []sim.Time
}

func (c *ctrlObserver) Flow() *transport.Flow              { return c.flow }
func (c *ctrlObserver) HasData(sim.Time) (bool, sim.Time)  { return false, 0 }
func (c *ctrlObserver) NextPacket(sim.Time) *packet.Packet { return nil }
func (c *ctrlObserver) Done() bool                         { return false }
func (c *ctrlObserver) HandleControl(_ *packet.Packet, now sim.Time) {
	c.arrived = append(c.arrived, now)
}

func TestControlPriorityAtNIC(t *testing.T) {
	// A control packet queued behind a data backlog at the NIC must be
	// the next frame on the wire (strict priority), so it arrives far
	// sooner than the data backlog would allow.
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(2), cfg)

	net.NIC(1).AttachSink(1, sinkFunc(func(*packet.Packet, sim.Time) {}))
	net.NIC(0).AttachSource(newBlaster(1, 0, 1, 1000, cfg.MTU))

	// Host 1 owns flow 2 as a sender, so control packets for flow 2
	// arriving at host 1 are delivered to this observer.
	obs := &ctrlObserver{flow: &transport.Flow{ID: 2, Src: 1, Dst: 0, Pkts: 1}}
	net.NIC(1).AttachSource(obs)

	inject := 10 * sim.Microsecond
	eng.After(inject, func() {
		net.NIC(0).SendControl(packet.NewAck(2, 0, 1, 5))
	})
	eng.Run()

	if len(obs.arrived) != 1 {
		t.Fatalf("control packet arrivals = %d, want 1", len(obs.arrived))
	}
	// Upper bound: one in-progress data packet at the NIC, the control
	// frame, one store-and-forward at the switch behind at most one data
	// packet, plus two propagation delays.
	wire := int64(cfg.Rate.Serialize(cfg.MTU + packet.DataHeader))
	ctrl := int64(cfg.Rate.Serialize(packet.ControlFrame))
	bound := sim.Time(int64(inject) + 2*wire + 2*ctrl + 2*int64(cfg.Prop) + wire)
	if obs.arrived[0] > bound {
		t.Errorf("control packet arrived at %d ps, bound %d ps", int64(obs.arrived[0]), int64(bound))
	}
}

func TestIdealFCT(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewFatTree(6), cfg)

	// Single packet, 2-hop path: 2×ser + 2×prop.
	one := net.IdealFCT(0, 1, 100)
	wire := int64(cfg.Rate.Serialize(100 + packet.DataHeader))
	want := 2*wire + 2*int64(cfg.Prop)
	if int64(one) != want {
		t.Errorf("IdealFCT(1pkt,2hop) = %d, want %d", int64(one), want)
	}

	// Larger message, longest path: must exceed the single-hop ideal and
	// the pure serialization time.
	big := net.IdealFCT(0, 53, 1_000_000)
	serAll := int64(cfg.Rate.Serialize(1_000_000 + 1000*packet.DataHeader))
	if int64(big) <= serAll {
		t.Errorf("IdealFCT must include store-and-forward and propagation")
	}
	// And the measured fabric should never beat it (checked in transport
	// integration tests).
}

func TestNetworkPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on MTU=0")
		}
	}()
	cfg := testConfig()
	cfg.MTU = 0
	New(sim.NewEngine(), topo.NewStar(2), cfg)
}

func TestNICPanicsOnSwitchID(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewStar(2), testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for switch id")
		}
	}()
	net.NIC(2) // node 2 is the switch
}

func TestECMPSpreadsAcrossCorePaths(t *testing.T) {
	// Many flows between the same pod pair should not all hash onto one
	// aggregation/core path. We detect spreading via switch occupancy:
	// run enough flows and confirm more than one core switch forwarded.
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewFatTree(4), cfg)

	seen := map[packet.FlowID]bool{}
	for f := packet.FlowID(1); f <= 32; f++ {
		src := packet.NodeID(0)
		dst := packet.NodeID(15) // different pod in k=4 (hosts 0..15)
		rec := sinkFunc(func(p *packet.Packet, _ sim.Time) { seen[p.Flow] = true })
		net.NIC(dst).AttachSink(f, rec)
		net.NIC(src).AttachSource(newBlaster(f, src, dst, 2, cfg.MTU))
	}
	eng.Run()
	if len(seen) != 32 {
		t.Fatalf("only %d/32 flows arrived", len(seen))
	}
}

// TestResetAllocatesNothing: the zero-rebuild trial path reuses a built
// fabric, so Network.Reset must reseed and clear it in place — the
// per-switch ECN streams included — rather than allocate per switch.
func TestResetAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewFatTree(4), cfg)
	net.NIC(0).AttachSource(newBlaster(1, 0, 15, 50, cfg.MTU))
	eng.Run()
	seed := uint64(1)
	if allocs := testing.AllocsPerRun(20, func() {
		seed++
		eng.Reset()
		net.Reset(seed, nil)
	}); allocs != 0 {
		t.Fatalf("Network.Reset of a k=4 fabric allocates %.1f/op, want 0", allocs)
	}
}
