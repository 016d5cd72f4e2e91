package fabric

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// pooledBlaster is a blaster that draws its packets from the fabric's
// pool, as the real transports do.
type pooledBlaster struct {
	pool *packet.Pool
	flow *transport.Flow
	mtu  int
	sent int
}

func (b *pooledBlaster) Flow() *transport.Flow                  { return b.flow }
func (b *pooledBlaster) HasData(sim.Time) (bool, sim.Time)      { return b.sent < b.flow.Pkts, 0 }
func (b *pooledBlaster) HandleControl(*packet.Packet, sim.Time) {}
func (b *pooledBlaster) Done() bool                             { return b.sent >= b.flow.Pkts }

func (b *pooledBlaster) NextPacket(now sim.Time) *packet.Packet {
	p := b.pool.NewData(b.flow.ID, b.flow.Src, b.flow.Dst, packet.PSN(b.sent), b.mtu, b.sent == b.flow.Pkts-1)
	p.SentAt = now
	b.sent++
	return p
}

// TestFabricSteadyStateReusesPackets: after warm-up, the fabric serves
// its packet churn from the pool. The flow below delivers thousands of
// packets while only a link's worth can be alive at once, so heap
// allocations must stay a small fraction of deliveries.
func TestFabricSteadyStateReusesPackets(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewStar(2), testConfig())
	const pkts = 4000
	src := &pooledBlaster{
		pool: net.Pool(),
		flow: &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * 1000, Pkts: pkts},
		mtu:  1000,
	}
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(src)
	eng.Run()

	pool := net.Pool()
	if got := net.Stats().Delivered; got < pkts {
		t.Fatalf("delivered %d, want >= %d", got, pkts)
	}
	if pool.Cap() > pkts/4 {
		t.Fatalf("pool grew to %d packets for %d deliveries; free-list reuse is broken",
			pool.Cap(), net.Stats().Delivered)
	}
}

// TestBuildK16Allocs: building a k=16 fat-tree fabric costs allocations in
// proportion to its ports, not to switches × hosts. One allocation per
// (switch, host) pair alone is 327 680.
func TestBuildK16Allocs(t *testing.T) {
	ft := topo.NewFatTree(16)
	cfg := testConfig()
	allocs := testing.AllocsPerRun(1, func() { New(sim.NewEngine(), ft, cfg) })
	if allocs >= 20_000 {
		t.Errorf("New(k=16) made %.0f allocations, want < 20000", allocs)
	}
}
