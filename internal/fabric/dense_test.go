package fabric

import (
	"fmt"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// voqModel is the reference for swOut.nextPacket: the linear round-robin
// scan the occupancy bitmap replaced, over plain per-input FIFOs, plus the
// per-input byte and PFC accounting the switch keeps beside it.
type voqModel struct {
	q      [][]*packet.Packet
	rr     int
	bytes  []int
	paused []bool
	pauses uint64
	resume uint64
}

func (m *voqModel) push(in int, pkt *packet.Packet, pfcOn int) {
	m.q[in] = append(m.q[in], pkt)
	m.bytes[in] += int(pkt.Wire)
	if !m.paused[in] && m.bytes[in] > pfcOn {
		m.paused[in] = true
		m.pauses++
	}
}

func (m *voqModel) next(pfcOff int) *packet.Packet {
	n := len(m.q)
	idx := m.rr
	if idx >= n {
		idx = 0
	}
	for i := 0; i < n; i++ {
		if len(m.q[idx]) > 0 {
			pkt := m.q[idx][0]
			m.q[idx] = m.q[idx][1:]
			m.rr = idx + 1
			m.bytes[idx] -= int(pkt.Wire)
			if m.paused[idx] && m.bytes[idx] <= pfcOff {
				m.paused[idx] = false
				m.resume++
			}
			return pkt
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return nil
}

// TestVOQBitmapMatchesLinearScan drives one switch output through random
// arrivals, departures and round-robin positions, and requires the bitmap
// scan to serve exactly the packet the linear scan would — across port
// counts below, at and above one bitmap word — with PFC pause and resume
// firing from the same arrivals and departures.
func TestVOQBitmapMatchesLinearScan(t *testing.T) {
	for _, ports := range []int{3, 16, 64, 65, 130} {
		t.Run(fmt.Sprint(ports), func(t *testing.T) {
			cfg := testConfig()
			cfg.PFC = true
			wire := cfg.MTU + packet.DataHeader
			// A buffer of a few packets, so pause and resume both fire often.
			cfg.BufferBytes = 12 * wire
			cfg.PFCHeadroom = 6 * wire
			cfg.PFCHysteresis = 2 * wire
			net := New(sim.NewEngine(), topo.NewStar(ports), cfg)
			sw := net.switches[0]
			const outIdx = 1
			o := &sw.out[outIdx]
			// Hold the transmitter with the pause flag: arrivals queue, and
			// the test alone decides when the output asks for its next
			// packet.
			o.port.paused = true

			m := &voqModel{
				q:      make([][]*packet.Packet, ports),
				bytes:  make([]int, ports),
				paused: make([]bool, ports),
			}
			rng := sim.NewRNG(uint64(ports))
			psn := 0
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(10); {
				case r < 5:
					in := rng.Intn(ports)
					if m.bytes[in]+wire > cfg.BufferBytes {
						continue // the switch would drop-tail; not what this test is about
					}
					pkt := packet.NewData(1, packet.NodeID(in), outIdx, packet.PSN(psn), cfg.MTU, false)
					psn++
					m.push(in, pkt, sw.pfcOn)
					sw.receive(pkt, in)
				case r < 9:
					want, got := m.next(sw.pfcOff), o.nextPacket()
					if got != want {
						t.Fatalf("step %d: nextPacket = %v, linear scan = %v", step, got, want)
					}
				default:
					// Any position is legal, including one past the last input.
					m.rr = rng.Intn(ports + 1)
					o.rr = m.rr
				}
				if o.rr != m.rr {
					t.Fatalf("step %d: rr = %d, want %d", step, o.rr, m.rr)
				}
			}
			for in := range m.q {
				if sw.in[in].bytes != m.bytes[in] || sw.in[in].paused != m.paused[in] {
					t.Fatalf("input %d: bytes/paused = %d/%v, want %d/%v",
						in, sw.in[in].bytes, sw.in[in].paused, m.bytes[in], m.paused[in])
				}
				if occ := o.occ[in>>6]&(1<<(in&63)) != 0; occ != (len(m.q[in]) > 0) {
					t.Fatalf("input %d: occupancy bit %v with %d queued", in, occ, len(m.q[in]))
				}
			}
			st := net.Stats()
			if st.PauseFrames != m.pauses || st.ResumeFrames != m.resume || m.resume == 0 {
				t.Fatalf("pause/resume frames = %d/%d, want %d/%d (and some resumes)",
					st.PauseFrames, st.ResumeFrames, m.pauses, m.resume)
			}
			// Drain: the tail of the run must agree too, down to empty.
			for {
				want, got := m.next(sw.pfcOff), o.nextPacket()
				if got != want {
					t.Fatalf("drain: nextPacket = %v, linear scan = %v", got, want)
				}
				if got == nil {
					break
				}
			}
		})
	}
}

// TestDenseTablesMatchTopology pins the two build-time resolutions against
// what they replaced: the route runs must decode, for every (switch,
// destination), to exactly topo.NextHops mapped to ports, in order, and
// stay within k+2 runs per fat-tree switch, so the table grows with ports
// and not hosts; and every port's resolved (peer, peerPort) must be the
// node a neighbor→port map lookup on the far side would have found.
func TestDenseTablesMatchTopology(t *testing.T) {
	topos := map[string]topo.Topology{
		"fattree2":  topo.NewFatTree(2),
		"fattree4":  topo.NewFatTree(4),
		"fattree6":  topo.NewFatTree(6),
		"fattree16": topo.NewFatTree(16),
		"fattree24": topo.NewFatTree(24),
		"star":      topo.NewStar(70),
		"dumbbell":  topo.NewDumbbell(5),
	}
	for name, tp := range topos {
		t.Run(name, func(t *testing.T) {
			net := New(sim.NewEngine(), tp, testConfig())
			// portOf[node][neighbor] is the port index the old per-switch
			// map held; a NIC's only port is 0.
			portOf := make([]map[packet.NodeID]int, len(net.nodes))
			for _, sw := range net.switches {
				portOf[sw.id] = make(map[packet.NodeID]int)
				for i, nb := range sw.neighbors {
					portOf[sw.id][nb] = i
				}
			}
			for _, nic := range net.nics {
				portOf[nic.id] = map[packet.NodeID]int{nic.egress.peer.(*Switch).id: 0}
			}

			maxSets, maxRuns := 0, 0
			for _, sw := range net.switches {
				for dst := 0; dst < tp.Hosts(); dst++ {
					got := sw.route(packet.NodeID(dst))
					hops := tp.NextHops(sw.id, packet.NodeID(dst))
					if len(got) != len(hops) {
						t.Fatalf("switch %d dst %d: %d candidate ports, want %d", sw.id, dst, len(got), len(hops))
					}
					for i, h := range hops {
						if int(got[i]) != portOf[sw.id][h] {
							t.Fatalf("switch %d dst %d: candidate %d is port %d, want %d", sw.id, dst, i, got[i], portOf[sw.id][h])
						}
					}
				}
				sets := 0
				for off := 0; off < len(sw.sets); off += 1 + int(sw.sets[off]) {
					sets++
				}
				maxSets = max(maxSets, sets)
				if sw.runs[0].first != 0 {
					t.Fatalf("switch %d: first run starts at host %d, want 0", sw.id, sw.runs[0].first)
				}
				for i := 1; i < len(sw.runs); i++ {
					if sw.runs[i].first <= sw.runs[i-1].first {
						t.Fatalf("switch %d: run starts %d, %d out of order", sw.id, sw.runs[i-1].first, sw.runs[i].first)
					}
				}
				maxRuns = max(maxRuns, len(sw.runs))
			}
			// An edge or aggregation switch has k/2 down ports plus the
			// shared uplink set, a core switch one port per pod; an edge
			// or aggregation switch's runs are the uplink set on either
			// side of its k/2 down ports.
			if ft, ok := tp.(*topo.FatTree); ok {
				if maxSets > ft.K {
					t.Errorf("a switch holds %d distinct port sets, want <= k = %d", maxSets, ft.K)
				}
				if maxRuns > ft.K+2 {
					t.Errorf("a switch holds %d route runs, want <= k+2 = %d", maxRuns, ft.K+2)
				}
			}

			checkPeer := func(from packet.NodeID, p *outPort, to packet.NodeID) {
				if p.peer != net.nodes[to] || p.peerPort != portOf[to][from] {
					t.Fatalf("port %d→%d: peer port %d, want %d", from, to, p.peerPort, portOf[to][from])
				}
			}
			for _, sw := range net.switches {
				for i := range sw.out {
					checkPeer(sw.id, &sw.out[i].port, sw.neighbors[i])
				}
			}
			for _, nic := range net.nics {
				checkPeer(nic.id, &nic.egress, nic.egress.peer.(*Switch).id)
			}
		})
	}
}

// TestSwitchHopZeroAllocs: a packet-hop through a warmed switch — arrival,
// routing, VOQ push, round-robin pop, serialization and delivery events —
// allocates nothing, on the plain path and on the PFC path with pause and
// resume frames firing.
func TestSwitchHopZeroAllocs(t *testing.T) {
	for _, pfc := range []bool{false, true} {
		cfg := testConfig()
		if pfc {
			// A 2:1 incast into a buffer of a few packets past the §4.1
			// headroom: the last edge switch pauses and resumes its
			// uplinks throughout.
			cfg.PFC = true
			cfg.BufferBytes = cfg.PFCHeadroom + 6*(cfg.MTU+packet.DataHeader)
		}
		eng := sim.NewEngine()
		net := New(eng, topo.NewFatTree(4), cfg)
		// Hosts 0 and 4 → host 15: each path crosses edge, aggregation and
		// core switches, five hops.
		const pkts = 64
		run := func() {
			net.NIC(0).AttachSource(newPooledBlaster(net, 1, 0, 15, pkts, cfg.MTU))
			net.NIC(4).AttachSource(newPooledBlaster(net, 2, 4, 15, pkts, cfg.MTU))
			eng.Run()
		}
		sink := sinkFunc(func(*packet.Packet, sim.Time) {})
		net.NIC(15).AttachSink(1, sink)
		net.NIC(15).AttachSink(2, sink)
		run() // warm: pool, wheel buckets
		// Each blaster and its flow are the run's own allocations; the
		// 128 packets × 5 switch hops in between must add none.
		if perRun := testing.AllocsPerRun(10, run); perRun > 4 {
			t.Errorf("PFC=%v: %.0f allocs per run of %d switch hops, want 4 (the two sources)", pfc, perRun, 2*pkts*5)
		}
		st := net.Stats()
		if st.Delivered < 2*pkts || st.Drops != 0 {
			t.Fatalf("PFC=%v: delivered %d packets with %d drops, want >= %d and none", pfc, st.Delivered, st.Drops, 2*pkts)
		}
		if pfc && (st.PauseFrames == 0 || st.ResumeFrames == 0) {
			t.Fatalf("PFC path not exercised: %d pause, %d resume frames", st.PauseFrames, st.ResumeFrames)
		}
	}
}
