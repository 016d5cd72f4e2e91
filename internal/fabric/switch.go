package fabric

import (
	"math/bits"
	"slices"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// Switch is an input-queued switch with virtual output queues (one FIFO
// per input at every output) scheduled round-robin, per-input-port buffer
// accounting, optional PFC generation, and RED/ECN marking — the switch
// model of §4.1.
//
// Layout: everything one packet-hop reads is resolved once at build time
// into dense slices sized by the switch's ports, not by the number of
// hosts: per-port state, the VOQ matrix and the route runs. Port i's
// input state, output queue and link all face the same neighbor, and the
// link's far end knows this switch's index for it (outPort.peerPort), so
// a hop never maps a node ID back to a port.
type Switch struct {
	id   packet.NodeID
	net  *Network
	part *partition // the shard slice this switch belongs to
	rng  sim.RNG    // per-switch ECN marking stream

	neighbors []packet.NodeID // port index → neighbor node
	in        []inState       // per input port
	out       []swOut         // per output port

	// Routing: the destination hosts fall into runs of consecutive IDs
	// that share one equal-cost port set. A fat-tree edge or aggregation
	// switch has k/2+2 runs — the uplink set before and after its own
	// subtree, one down port per subtree member between — and a core
	// switch k, one per pod; runs holds each run's first host in
	// ascending order, and pickOutput binary-searches it. The switch's
	// few distinct sets (k/2+1 at an edge or aggregation switch, k at a
	// core switch) sit back to back in sets, each as its length followed
	// by its candidate output ports in topo.NextHops order (at most 32
	// entries, one cache line, at k=16); a run holds the offset of its
	// set's length.
	runs []routeRun
	sets []uint16

	salt     uint64 // per-switch ECMP salt
	sprayCtr uint64 // per-packet path counter (Spray mode)
	shared   int    // shared-buffer occupancy (SharedBuffer mode)

	// Per-packet configuration, copied out of net.Cfg by loadConfig so the
	// datapath reads the switch's own cache lines.
	bufCap    int  // drop-tail limit: per input, or the pool when shared
	pfcOn     int  // input occupancy above which X-OFF is sent
	pfcOff    int  // input occupancy at or below which X-ON is sent
	sharedBuf bool // bufCap applies to the switch-wide pool
	pfc       bool
	ecn       bool
	spray     bool
}

// routeRun is one run of the routing table: destinations from first up to
// the next run's first use the port set at sets[set].
type routeRun struct {
	first packet.NodeID
	set   uint16
}

type inState struct {
	bytes  int  // buffered bytes received on this port, across all VOQs
	paused bool // X-OFF currently asserted upstream
}

type swOut struct {
	sw     *Switch
	port   outPort
	voq    []packet.Queue // per input port
	occ    []uint64       // bit i set ⇔ voq[i] is non-empty; one word per 64 inputs
	rr     int
	queued int // total bytes queued at this output (for ECN marking)
}

// newSwitch builds a switch shell of the given port count; the Network
// wires each port (see Network.wire).
func newSwitch(id packet.NodeID, net *Network, part *partition, ports int) *Switch {
	s := &Switch{
		id:        id,
		net:       net,
		part:      part,
		salt:      mix64(uint64(id) + 0x5151_7eb5_c0de),
		neighbors: make([]packet.NodeID, ports),
		in:        make([]inState, ports),
		out:       make([]swOut, ports),
	}
	s.rng.Seed(ecnSeed(net.Cfg.Seed, id))
	// One slab each for the VOQ matrix and its occupancy bitmaps, so a
	// switch's queue state is contiguous.
	words := (ports + 63) / 64
	voq := make([]packet.Queue, ports*ports)
	occ := make([]uint64, ports*words)
	for i := range s.out {
		s.out[i].sw = s
		s.out[i].voq = voq[i*ports : (i+1)*ports]
		s.out[i].occ = occ[i*words : (i+1)*words]
	}
	s.loadConfig()
	return s
}

// buildRoutes fills the routing table once every port is wired: one pass
// over the destinations, opening a run wherever the port set changes.
// portOf is scratch indexed by node ID, shared by every switch's build;
// only this switch's neighbors are read back, and those are set here.
func (s *Switch) buildRoutes(portOf []uint16) {
	for i, nb := range s.neighbors {
		portOf[nb] = uint16(i)
	}
	var ports []uint16
	for dst := range s.net.Topo.Hosts() {
		ports = ports[:0]
		for _, h := range s.net.Topo.NextHops(s.id, packet.NodeID(dst)) {
			ports = append(ports, portOf[h])
		}
		if len(s.runs) > 0 && slices.Equal(ports, s.set(s.runs[len(s.runs)-1].set)) {
			continue
		}
		s.runs = append(s.runs, routeRun{first: packet.NodeID(dst), set: s.internSet(ports)})
	}
}

// set returns the port set at offset off in s.sets.
func (s *Switch) set(off uint16) []uint16 {
	n := int(s.sets[off])
	return s.sets[int(off)+1 : int(off)+1+n]
}

// route returns the candidate output ports toward dst: the set of the last
// run that starts at or before it.
func (s *Switch) route(dst packet.NodeID) []uint16 {
	runs := s.runs
	i := 0
	for n := uint(len(runs)); n > 1; n -= n / 2 {
		if mid := i + int(n/2); runs[mid].first <= dst {
			i = mid
		}
	}
	return s.set(runs[i].set)
}

// internSet returns the offset in s.sets of the port set equal to ports,
// appending it on first sight.
func (s *Switch) internSet(ports []uint16) uint16 {
	off := 0
	for ; off < len(s.sets); off += 1 + int(s.sets[off]) {
		if slices.Equal(s.sets[off+1:off+1+int(s.sets[off])], ports) {
			return uint16(off)
		}
	}
	if off+len(ports) >= 1<<16 {
		panic("fabric: switch route sets exceed the 16-bit offset space")
	}
	s.sets = append(append(s.sets, uint16(len(ports))), ports...)
	return uint16(off)
}

// loadConfig copies the per-packet parameters out of the fabric config.
func (s *Switch) loadConfig() {
	cfg := &s.net.Cfg
	s.sharedBuf = cfg.SharedBuffer
	s.bufCap = cfg.BufferBytes
	if s.sharedBuf {
		s.bufCap *= len(s.in)
	}
	s.pfc = cfg.PFC
	s.pfcOn = cfg.PFCThreshold()
	s.pfcOff = s.pfcOn - cfg.PFCHysteresis
	s.ecn = cfg.ECN.Enabled
	s.spray = cfg.Spray
}

// reset returns the switch to its just-built state for a new run: empty
// VOQs, zeroed buffer accounting, PFC deasserted, round-robin pointers and
// the spray counter at their initial positions. Structural state (ports,
// routes, the ECMP salt) is topology-derived and survives.
func (s *Switch) reset() {
	for i := range s.in {
		s.in[i] = inState{}
	}
	for i := range s.out {
		o := &s.out[i]
		o.rr, o.queued = 0, 0
		for i := range o.voq {
			o.voq[i].Reset()
		}
		clear(o.occ)
		o.port.reset()
	}
	s.sprayCtr = 0
	s.shared = 0
	s.loadConfig()
}

// drop is the switch death site, drop-tail at a full buffer: the packet
// is counted in Stats.Drops, which Census reads as OverflowDrops, and
// returns to the pool.
func (s *Switch) drop(pkt *packet.Packet) {
	s.part.stats.Drops++
	s.part.pool.Release(pkt)
}

// receive handles a packet arriving on input port inIdx.
func (s *Switch) receive(pkt *packet.Packet, inIdx int) {
	// Drop-tail on a full buffer. With PFC configured correctly this
	// should not trigger; without PFC it is the loss the transports
	// must recover from. In shared-buffer mode the pool spans all input
	// ports (total = ports × BufferBytes).
	in := &s.in[inIdx]
	used, wire := in.bytes, int(pkt.Wire)
	if s.sharedBuf {
		used = s.shared
	}
	if used+wire > s.bufCap {
		s.drop(pkt)
		return
	}

	o := &s.out[s.pickOutput(pkt)]

	// RED/ECN marking against this output's backlog.
	if s.ecn && pkt.ECT && !pkt.CE && s.markECN(o.queued) {
		pkt.CE = true
		s.part.stats.ECNMarked++
	}

	// Cut-through at an idle output: with nothing queued here and the
	// transmitter free, the push, the round-robin scan and the pop would
	// hand this very packet straight back, so skip them and take every
	// other step of that path in the same order.
	cut := o.queued == 0 && !o.port.paused && !o.port.down && !o.port.serializing()
	if !cut {
		o.voq[inIdx].Push(pkt)
		o.occ[inIdx>>6] |= 1 << (inIdx & 63)
		o.queued += wire
	}
	in.bytes += wire
	s.shared += wire

	// PFC: assert X-OFF upstream when this input crosses the threshold.
	if s.pfc && !in.paused && in.bytes > s.pfcOn {
		in.paused = true
		s.part.stats.PauseFrames++
		s.out[inIdx].port.sendPFC(true)
	}

	if cut {
		o.rr = inIdx + 1
		s.dequeued(inIdx, pkt)
		o.port.start(pkt, false)
		return
	}
	o.port.kick()
}

// pickOutput chooses the output port for pkt: flow-hash ECMP by default,
// or an independent per-packet choice in spray mode. Next-hop selection
// honors link state: output ports whose link is down are skipped while an
// equal-cost alternative is up (the routing reconvergence a real fabric
// performs, collapsed to instantaneous). If every choice is down the
// hashed pick stands — the packet queues at the dead port and its loss is
// recovered like any other.
func (s *Switch) pickOutput(pkt *packet.Packet) int {
	ports := s.route(pkt.Dst)
	n := len(ports)
	if n == 1 {
		return int(ports[0])
	}
	// The flow hash, recomputed per hop: Flow shares the packet's one
	// cache line, so this costs a few ALU ops and no memory.
	h := uint64(uint32(mix64(uint64(pkt.Flow))))
	if s.spray {
		s.sprayCtr++
		h ^= s.sprayCtr * 0x9e3779b97f4a7c15
	}
	hv := mix64(h ^ s.salt)
	if s.part.downPorts > 0 {
		up := 0
		for _, p := range ports {
			if !s.out[p].port.down {
				up++
			}
		}
		if up > 0 && up < len(ports) {
			k := int(hv % uint64(up))
			for _, p := range ports {
				if !s.out[p].port.down {
					if k == 0 {
						return int(p)
					}
					k--
				}
			}
		}
	}
	if n&(n-1) == 0 {
		return int(ports[hv&uint64(n-1)]) // == hv % n, without the divide
	}
	return int(ports[hv%uint64(n)])
}

// nextInput returns the first input at or after from whose VOQ at this
// output is non-empty, or -1.
func (o *swOut) nextInput(from int) int {
	for w := from >> 6; w < len(o.occ); w++ {
		m := o.occ[w]
		if w == from>>6 {
			m &^= 1<<(from&63) - 1
		}
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// nextPacket supplies the output port's next packet: round-robin over the
// input VOQs feeding this output, resuming after the input served last.
// The occupancy bitmap finds that input without touching the empty VOQs
// in between.
func (o *swOut) nextPacket() *packet.Packet {
	idx := o.nextInput(o.rr)
	if idx < 0 {
		if idx = o.nextInput(0); idx < 0 {
			return nil
		}
	}
	q := &o.voq[idx]
	pkt := q.Pop()
	if q.Empty() {
		o.occ[idx>>6] &^= 1 << (idx & 63)
	}
	o.rr = idx + 1
	o.queued -= int(pkt.Wire)
	o.sw.dequeued(idx, pkt)
	return pkt
}

// dequeued updates input accounting after a packet leaves input inIdx's
// buffer, releasing PFC if the buffer drained far enough.
func (s *Switch) dequeued(inIdx int, pkt *packet.Packet) {
	in, wire := &s.in[inIdx], int(pkt.Wire)
	in.bytes -= wire
	s.shared -= wire
	if in.paused && in.bytes <= s.pfcOff {
		in.paused = false
		s.part.stats.ResumeFrames++
		s.out[inIdx].port.sendPFC(false)
	}
}

// pfcFrame handles an X-OFF/X-ON received on port: it pauses or resumes
// the output port facing the neighbor that sent it.
func (s *Switch) pfcFrame(port int, pause bool) {
	if pause {
		s.out[port].port.pause()
	} else {
		s.out[port].port.resume()
	}
}

// markECN samples the RED marking decision for an egress backlog of
// queued bytes, against this switch's own deterministic RNG stream.
func (s *Switch) markECN(queued int) bool {
	e := &s.net.Cfg.ECN
	if queued <= e.KMin {
		return false
	}
	if queued >= e.KMax {
		return true
	}
	p := e.PMax * float64(queued-e.KMin) / float64(e.KMax-e.KMin)
	return s.rng.Float64() < p
}

// mix64 is splitmix64's finalizer, used for ECMP hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
