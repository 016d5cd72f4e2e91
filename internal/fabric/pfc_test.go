package fabric

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// TestPFCHeadOfLineBlocking demonstrates the §2.2 pathology the paper is
// built around. Dumbbell, hosts 0..2 left, 3..5 right. Hosts 0, 4 and 5
// converge on host 3 (3:1 overload), so the right switch's input from the
// shared link fills and PFC pauses the shared link itself. A victim flow
// from host 1 to the completely idle host 4's receive side must cross
// that paused link: its completion time balloons compared to running
// without the hotspot — head-of-line blocking by traffic to a different
// destination.
func TestPFCHeadOfLineBlocking(t *testing.T) {
	victimFCT := func(hotspot bool) (sim.Time, Stats) {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.PFC = true
		net := New(eng, topo.NewDumbbell(3), cfg)

		if hotspot {
			net.NIC(3).AttachSink(1, sinkFunc(func(*packet.Packet, sim.Time) {}))
			net.NIC(3).AttachSink(2, sinkFunc(func(*packet.Packet, sim.Time) {}))
			net.NIC(3).AttachSink(3, sinkFunc(func(*packet.Packet, sim.Time) {}))
			net.NIC(0).AttachSource(newBlaster(1, 0, 3, 3000, cfg.MTU))
			net.NIC(4).AttachSource(newBlaster(2, 4, 3, 3000, cfg.MTU))
			net.NIC(5).AttachSource(newBlaster(3, 5, 3, 3000, cfg.MTU))
		}

		// Victim: host 1 → host 4 (host 4's receive path is idle).
		var done sim.Time
		net.NIC(4).AttachSink(9, sinkFunc(func(p *packet.Packet, now sim.Time) {
			if p.Last {
				done = now
			}
		}))
		start := sim.Time(100 * sim.Microsecond)
		eng.Schedule(start, func() {
			net.NIC(1).AttachSource(newBlaster(9, 1, 4, 50, cfg.MTU))
		})
		eng.Run()
		if done == 0 {
			t.Fatal("victim flow never completed")
		}
		return done - start, net.Stats()
	}

	blocked, stats := victimFCT(true)
	clean, _ := victimFCT(false)
	if stats.PauseFrames == 0 {
		t.Fatal("hotspot generated no pauses; test setup broken")
	}
	// The victim's only contention is the shared link, which PFC keeps
	// pausing on the hotspot's behalf; its completion time should grow
	// well beyond fair sharing.
	if blocked < clean*3/2 {
		t.Errorf("victim FCT with hotspot %v vs clean %v: expected head-of-line blocking",
			sim.Duration(blocked), sim.Duration(clean))
	}
	if stats.Drops != 0 {
		t.Errorf("drops = %d under PFC", stats.Drops)
	}
}

// TestPFCCascadesUpstream verifies pause propagation: with sustained
// overload, pauses are not confined to the edge switch but propagate to
// the upstream switch's output as well (congestion spreading).
func TestPFCCascadesUpstream(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.PFC = true
	net := New(eng, topo.NewDumbbell(3), cfg)

	net.NIC(3).AttachSink(1, sinkFunc(func(*packet.Packet, sim.Time) {}))
	net.NIC(3).AttachSink(2, sinkFunc(func(*packet.Packet, sim.Time) {}))
	net.NIC(4).AttachSink(3, sinkFunc(func(*packet.Packet, sim.Time) {}))
	net.NIC(0).AttachSource(newBlaster(1, 0, 3, 4000, cfg.MTU))
	net.NIC(1).AttachSource(newBlaster(2, 1, 3, 4000, cfg.MTU))
	net.NIC(2).AttachSource(newBlaster(3, 2, 4, 4000, cfg.MTU))
	eng.Run()

	// 2:1 overload at host 3 for ~1.7 ms of traffic against a 240 KB
	// buffer: the right switch must pause the left switch (shared link),
	// and the left switch must in turn pause the sending hosts.
	if net.Stats().PauseFrames < 4 {
		t.Errorf("pause frames = %d; expected a cascade", net.Stats().PauseFrames)
	}
	if net.Stats().Drops != 0 {
		t.Errorf("drops = %d under PFC", net.Stats().Drops)
	}
}

// TestFabricDeterminism runs a full mixed workload twice and requires
// bit-identical statistics.
func TestFabricDeterminism(t *testing.T) {
	run := func() Stats {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.ECN = ECNConfig{Enabled: true, KMin: 10_000, KMax: 100_000, PMax: 0.5}
		cfg.Seed = 99
		net := New(eng, topo.NewFatTree(4), cfg)
		for f := packet.FlowID(1); f <= 10; f++ {
			src := packet.NodeID(int(f) % 16)
			dst := packet.NodeID((int(f) + 7) % 16)
			if src == dst {
				dst = (dst + 1) % 16
			}
			net.NIC(dst).AttachSink(f, sinkFunc(func(*packet.Packet, sim.Time) {}))
			src2 := src
			b := &ectSource{newBlaster(f, src2, dst, 500, cfg.MTU)}
			net.NIC(src).AttachSource(b)
		}
		eng.Run()
		return net.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("fabric nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TestPFCHeadroomSufficient floods one port and confirms the buffer
// never exceeds its configured size (the §4.1 headroom Sized sets absorbs
// all in-flight data after X-OFF).
func TestPFCHeadroomSufficient(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.PFC = true
	net := New(eng, topo.NewStar(5), cfg)

	for f := packet.FlowID(1); f <= 4; f++ {
		net.NIC(4).AttachSink(f, sinkFunc(func(*packet.Packet, sim.Time) {}))
	}
	for h := 0; h < 4; h++ {
		net.NIC(packet.NodeID(h)).AttachSource(newBlaster(packet.FlowID(h+1), packet.NodeID(h), 4, 2000, cfg.MTU))
	}
	eng.Run()
	if net.Stats().Drops != 0 {
		t.Errorf("4:1 overload dropped %d packets despite PFC", net.Stats().Drops)
	}
	if net.Stats().Delivered != 8000 {
		t.Errorf("delivered %d, want 8000", net.Stats().Delivered)
	}
}

// TestSprayReordersWithinFlow verifies per-packet multipathing: packets
// of one flow take different equal-cost paths, arriving out of order —
// the reordering §7 discusses.
func TestSprayReordersWithinFlow(t *testing.T) {
	outOfOrder := func(spray bool) int {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Spray = spray
		net := New(eng, topo.NewFatTree(4), cfg)
		// Cross-pod flow with background traffic loading the equal-cost
		// paths unevenly — queueing differentials are what turn
		// per-packet spraying into reordering.
		var prev packet.PSN
		ooo := 0
		first := true
		net.NIC(15).AttachSink(1, sinkFunc(func(p *packet.Packet, _ sim.Time) {
			if !first && p.PSN < prev {
				ooo++
			}
			prev = p.PSN
			first = false
		}))
		net.NIC(14).AttachSink(2, sinkFunc(func(*packet.Packet, sim.Time) {}))
		net.NIC(13).AttachSink(3, sinkFunc(func(*packet.Packet, sim.Time) {}))
		net.NIC(0).AttachSource(newBlaster(1, 0, 15, 500, cfg.MTU))
		net.NIC(1).AttachSource(newBlaster(2, 1, 14, 800, cfg.MTU))
		net.NIC(2).AttachSource(newBlaster(3, 2, 13, 800, cfg.MTU))
		eng.Run()
		return ooo
	}
	if got := outOfOrder(false); got != 0 {
		t.Errorf("flow-hash ECMP reordered %d packets", got)
	}
	if got := outOfOrder(true); got == 0 {
		t.Error("spraying produced no reordering on a multi-path topology")
	}
}

// TestSharedBufferAbsorbsBursts verifies the shared-buffer mode: a burst
// that overflows one partitioned input port fits in the shared pool.
func TestSharedBufferAbsorbsBursts(t *testing.T) {
	drops := func(shared bool) uint64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.SharedBuffer = shared
		cfg.BufferBytes = 30_000 // tiny per-port budget
		net := New(eng, topo.NewStar(5), cfg)
		for f := packet.FlowID(1); f <= 4; f++ {
			net.NIC(4).AttachSink(f, sinkFunc(func(*packet.Packet, sim.Time) {}))
		}
		// One host bursts hard into the shared switch; with partitioned
		// buffers its single input port overflows, while the shared pool
		// (5 ports x 30 KB) absorbs it.
		net.NIC(0).AttachSource(newBlaster(1, 0, 4, 2000, cfg.MTU))
		net.NIC(1).AttachSource(newBlaster(2, 1, 4, 2000, cfg.MTU))
		eng.Run()
		return net.Stats().Drops
	}
	part := drops(false)
	shared := drops(true)
	if part == 0 {
		t.Fatal("partitioned tiny buffer did not overflow; test setup broken")
	}
	if shared >= part {
		t.Errorf("shared buffer drops %d !< partitioned %d", shared, part)
	}
}

// pfcRec stands in for the upstream node of a switch input: it records
// every PFC frame it is sent, with the frame's position in the engine's
// total order.
type pfcRec struct {
	eng    *sim.Engine
	frames []pfcAt
}

type pfcAt struct {
	at    sim.Time
	rank  uint64
	pause bool
}

func (r *pfcRec) receive(*packet.Packet, int) { panic("pfcRec: data on a PFC-only port") }
func (r *pfcRec) pfcFrame(_ int, pause bool) {
	r.frames = append(r.frames, pfcAt{r.eng.Now(), r.eng.Rank(), pause})
}

// TestCutThroughKeepsPFCOrder: an arrival at an idle output that lifts its
// input past the X-OFF threshold — the bytes above it wait at the input's
// other output — is passed straight through, and must still send X-OFF,
// then X-ON at the same instant as its own departure drains the input
// back below the threshold, then start serializing: the order the push,
// pop and kick it skips would have produced.
func TestCutThroughKeepsPFCOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.PFC = true
	wire := cfg.MTU + packet.DataHeader
	// Four queued packets sit at X-ON level; a fifth crosses X-OFF.
	cfg.BufferBytes = 20 * wire
	cfg.PFCHeadroom = cfg.BufferBytes - (4*wire + wire/2)
	cfg.PFCHysteresis = wire / 4
	net := New(eng, topo.NewStar(3), cfg)
	sw := net.switches[0] // port i faces host i
	upstream := &pfcRec{eng: eng}
	sw.out[0].port.peer = upstream
	down := &peerRec{eng: eng}
	sw.out[2].port.peer = down

	// Input 0's bytes wait at output 1, held by a pause.
	sw.out[1].port.paused = true
	for psn := 0; psn < 4; psn++ {
		sw.receive(packet.NewData(1, 0, 1, packet.PSN(psn), cfg.MTU, false), 0)
	}
	if st := net.Stats(); st.PauseFrames != 0 || sw.in[0].bytes != 4*wire {
		t.Fatalf("set-up: %d pause frames, input holds %d bytes, want 0 and %d", st.PauseFrames, sw.in[0].bytes, 4*wire)
	}

	sw.receive(packet.NewData(2, 0, 2, 0, cfg.MTU, true), 0)
	o := &sw.out[2]
	if st := net.Stats(); st.PauseFrames != 1 || st.ResumeFrames != 1 {
		t.Fatalf("pause/resume frames = %d/%d, want 1/1", st.PauseFrames, st.ResumeFrames)
	}
	if sw.in[0].paused || sw.in[0].bytes != 4*wire {
		t.Fatalf("input 0: paused=%v with %d bytes, want resumed with %d", sw.in[0].paused, sw.in[0].bytes, 4*wire)
	}
	if !o.port.serializing() || o.queued != 0 || !o.voq[0].Empty() || o.occ[0] != 0 || o.rr != 1 {
		t.Fatalf("output 2: serializing=%v queued=%d occ=%#x rr=%d, want serializing, empty, rr 1",
			o.port.serializing(), o.queued, o.occ[0], o.rr)
	}

	eng.Run()
	f := upstream.frames
	if len(f) != 2 || !f[0].pause || f[1].pause || f[0].at != f[1].at || f[0].rank >= f[1].rank {
		t.Fatalf("upstream saw %+v, want X-OFF then X-ON at one instant", f)
	}
	if len(down.arrivals) != 1 || down.arrivals[0].flow != 2 {
		t.Fatalf("host 2's port delivered %+v, want flow 2's one packet", down.arrivals)
	}
	// Ranks are drawn in scheduling order: the packet's arrival was
	// scheduled after both frames.
	if a := down.arrivals[0]; a.rank <= f[1].rank {
		t.Fatalf("data arrival rank %d not after X-ON rank %d: serialization started before the resume", a.rank, f[1].rank)
	}
}
