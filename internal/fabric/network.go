package fabric

import (
	"fmt"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// node is anything attached to links: a Switch or a NIC.
// Both methods name the link by the receiver's own port index for it,
// which the transmitting outPort resolved at build time (peerPort).
type node interface {
	receive(pkt *packet.Packet, inPort int)
	pfcFrame(port int, pause bool)
}

// partition is one shard's slice of the fabric: the nodes assigned to one
// engine, plus everything those nodes touch on the datapath — packet
// pool, stats, the down-port count gating ECMP rescans — so that
// a shard goroutine never writes state owned by another shard. A
// single-shard fabric has exactly one partition and runs the exact same
// code paths.
type partition struct {
	eng  *sim.Engine
	pool *packet.Pool

	stats Stats
	// injected counts packets that entered the fabric at this
	// partition's NIC egress ports; every exit is a Stats counter.
	injected  uint64
	downPorts int

	// drained counts boundary occurrences drained into this partition's
	// engine across the run — shard-runtime observability (Result.
	// ShardStats). Written only by the coordinator at barriers.
	drained uint64

	// inbox lists the boundary channels this partition consumes; kept
	// for reset bookkeeping and diagnostics.
	inbox []*linkChan

	// dirty lists the boundary channels this partition *produced into*
	// during the current window and that are not yet drained. Appended by
	// the producing shard (single-writer: a channel's transmitting port
	// lives on exactly one shard), read and cleared by the coordinator at
	// the barrier — so DrainAll visits only channels holding occurrences
	// instead of scanning every boundary channel every barrier.
	dirty []*linkChan
}

// Network instantiates a topology into a running fabric over one or more
// shard engines.
type Network struct {
	// Eng is partition 0's engine — the only engine of a single-shard
	// fabric, which is how tests and examples drive the network directly.
	Eng  *sim.Engine
	Topo topo.Topology
	Cfg  Config

	parts  []*partition
	partOf []int       // node → partition index
	clks   []sim.Clock // node → rank clock (id = node+1)
	envClk sim.Clock   // id 0: fault-model transitions, ordered before any node's events
	// faultRank[d] is the first rank of directed link d's block of fault
	// transitions on envClk; transition ci fires under faultRank[d]+ci.
	faultRank []uint64
	chans     []*linkChan // boundary channels (empty when single-shard)

	nodes    []node // indexed by NodeID
	nics     []*NIC // indexed by host NodeID
	switches []*Switch
	ports    []*outPort // indexed by directed-link index (2*link, 2*link+1)

	// lookahead and slack are fixed at construction (see the computation
	// in NewPartitioned): the safe-window width this partitioning
	// supports, and the canonical maximum width any partitioning of this
	// config could support (used as the Done-horizon slack).
	lookahead sim.Duration
	slack     sim.Duration

	// reaped, when set, receives every source a NIC reaps (see OnReap).
	reaped func(transport.Source)
}

// New builds a single-shard fabric: one NIC per host, one Switch per
// switch node, and two unidirectional ports per link, all on one engine.
func New(eng *sim.Engine, t topo.Topology, cfg Config) *Network {
	return NewPartitioned([]*sim.Engine{eng}, nil, t, cfg)
}

// NewPartitioned builds the fabric across one engine per shard. assign
// maps every node to an engine index (nil assigns everything to engine
// 0); links between nodes on different engines become cross-shard
// channels, drained by DrainAll at the window barriers of sim.RunWindows
// under the lookahead this partitioning supports (see computeLookahead).
//
// A fault model requires a single-shard fabric: boundary channels carry
// packets and PFC frames only, and faulted runs are serial
// (exp.Scenario.Shards).
func NewPartitioned(engs []*sim.Engine, assign []int, t topo.Topology, cfg Config) *Network {
	if cfg.MTU <= 0 {
		panic("fabric: config MTU must be positive")
	}
	if len(engs) == 0 {
		panic("fabric: need at least one engine")
	}
	if len(engs) > 1 && cfg.Faults != nil {
		panic("fabric: a fault model requires a single-shard fabric")
	}
	nodes := t.Nodes()
	if assign == nil {
		assign = make([]int, len(nodes))
	}

	net := &Network{
		Eng:    engs[0],
		Topo:   t,
		Cfg:    cfg,
		partOf: assign,
		clks:   make([]sim.Clock, len(nodes)),
		envClk: sim.NewClock(0),
		nodes:  make([]node, len(nodes)),
		nics:   make([]*NIC, t.Hosts()),
	}
	for i := range net.clks {
		net.clks[i] = sim.NewClock(uint64(i) + 1)
	}
	net.parts = make([]*partition, len(engs))
	for i, eng := range engs {
		net.parts[i] = &partition{eng: eng, pool: packet.NewPool()}
	}

	// A node's ports are numbered in link order, so one pass over the
	// links yields every port index before any port exists — which is what
	// lets each direction be wired already knowing the index its peer gives
	// the reverse direction.
	links := t.Links()
	portIdx := make([]int, 2*len(links)) // directed link → port index at its transmitter
	degree := make([]int, len(nodes))
	for i, l := range links {
		portIdx[2*i], portIdx[2*i+1] = degree[l.A], degree[l.B]
		degree[l.A]++
		degree[l.B]++
	}

	for _, n := range nodes {
		part := net.parts[assign[n.ID]]
		if n.Kind == topo.Host {
			nic := newNIC(n.ID, net, part)
			net.nodes[n.ID] = nic
			net.nics[n.ID] = nic
		} else {
			sw := newSwitch(n.ID, net, part, degree[n.ID])
			net.nodes[n.ID] = sw
			net.switches = append(net.switches, sw)
		}
	}

	// Wire both directions of every link, attaching each direction's
	// fault state (nil on healthy links).
	for i, l := range links {
		a, b := portIdx[2*i], portIdx[2*i+1]
		net.ports = append(net.ports,
			net.wire(l.A, l.B, a, b, cfg.Faults.Dir(i, false)),
			net.wire(l.B, l.A, b, a, cfg.Faults.Dir(i, true)))
	}
	portOf := make([]uint16, len(nodes))
	for _, sw := range net.switches {
		sw.buildRoutes(portOf)
	}

	net.computeLookahead()
	net.faultRank = make([]uint64, len(net.ports))
	net.scheduleFaults(cfg.Faults)
	return net
}

// minWire is the smallest frame the fabric ever serializes: control
// frames (ACK/NACK/CNP) are fixed-size, and the smallest data packet is a
// one-byte payload behind the data header.
func minWire() int {
	w := packet.ControlFrame
	if packet.DataHeader+1 < w {
		w = packet.DataHeader + 1
	}
	return w
}

// computeLookahead fixes the safe-window width for this partitioning.
//
// Bare link propagation is always a sound lookahead: a cross-shard
// occurrence produced at time g arrives at g+prop at the earliest. The
// widened bound adds the serialization delay of the smallest frame that
// can cross a cut link, and is sound because boundary ports push their
// occurrence at serialization *start* (outPort.kick): a packet whose
// serialization starts at k is due k + ser(pkt) + prop >= k + serMin +
// prop, so with windows opening at T, every occurrence produced during
// the window (k >= T) lands at or after T + serMin + prop — and
// occurrences from serializations started before T were already pushed,
// hence drained at the barrier. The minimum is taken over cut links
// (links whose endpoints live on different shards); per-link rates would
// make this a genuine minimum, with today's uniform config every cut
// link contributes the same bound. Fault-model degradations only *slow*
// serialization (fault.Degrade validates Factor in (0,1]), so the
// base-rate bound stays a lower bound under any fault schedule — the
// lookahead is seed- and fault-independent, which is why Reset never
// recomputes it.
//
// PFC frames are no exception: pause/resume frames are fixed-size
// control frames whose serialization (sendPFC folds it into the arrival
// delay at generation time) is at least serMin, so a PFC-enabled fabric
// gets the same widened bound as any other — a frame generated at g >= T
// lands at g + ser(ControlFrame) + prop >= T + serMin + prop.
//
// slack is the same bound ignoring the partitioning: the widest window
// any configuration of this fabric could use, canonical across shard
// counts and lookahead choices — the Done-horizon slack (see
// WindowSlack).
func (net *Network) computeLookahead() {
	serMin := net.Cfg.Rate.Serialize(minWire())
	net.slack = net.Cfg.Prop + serMin

	cut := false
	var la sim.Duration
	for _, l := range net.Topo.Links() {
		if net.partOf[l.A] == net.partOf[l.B] {
			continue
		}
		cand := net.Cfg.Prop + serMin // per-link rate, if links ever differ
		if !cut || cand < la {
			cut, la = true, cand
		}
	}
	if !cut {
		// No cut links (single shard): windows are bounded only by the
		// canonical slack.
		net.lookahead = net.slack
		return
	}
	net.lookahead = la
}

// Lookahead reports the safe-window width this partitioning supports —
// the value to pass as sim.WindowConfig.Lookahead.
func (net *Network) Lookahead() sim.Duration { return net.lookahead }

// WindowSlack reports the canonical maximum window width for this config,
// independent of partitioning, shard count and PFC: link propagation plus
// the minimum frame serialization. Done-horizon hooks add it to the
// done-condition's timestamp so the final deadline — and with it the
// executed-event set and final clocks — is identical for every shard
// count and every lookahead at or below it.
func (net *Network) WindowSlack() sim.Duration { return net.slack }

// scheduleFaults starts the fault model's link transitions (flaps,
// degradations, loss bursts): typed events on the engine owning each
// directed link's transmitting port — the shard whose state the transition
// mutates. They ride the environment clock (rank ID 0, below every node),
// so at equal timestamps a transition applies before any packet event —
// deterministically; each direction's rank block is reserved here,
// serially in direction order, so the ranks are identical for every shard
// count. A direction's transitions are time-ordered, so only its next one
// is ever queued: HandleEvent schedules entry ci+1 as it applies ci.
func (net *Network) scheduleFaults(m *fault.Model) {
	for d, fl := range m.Dirs() {
		if fl == nil || len(fl.Sched) == 0 {
			continue
		}
		net.faultRank[d] = net.envClk.Reserve(len(fl.Sched))
		net.ports[d].eng.ScheduleRanked(fl.Sched[0].At, net.faultRank[d], net, 0, uint64(d)<<32)
	}
}

// wire creates the unidirectional port from → to and returns it; idx and
// peerPort are the transmitter's and the receiver's port index for this
// link. A boundary crossing (endpoints on different partitions) gets a
// cross-shard channel in place of direct delivery.
func (net *Network) wire(from, to packet.NodeID, idx, peerPort int, flt *fault.Link) *outPort {
	owner := net.parts[net.partOf[from]]
	port := outPort{
		eng:      owner.eng,
		clk:      &net.clks[from],
		part:     owner,
		rate:     net.Cfg.Rate,
		curRate:  net.Cfg.Rate,
		prop:     net.Cfg.Prop,
		flt:      flt,
		peer:     net.nodes[to],
		peerPort: peerPort,
	}
	if flt != nil {
		port.curLoss = flt.Loss
	}
	if consumer := net.parts[net.partOf[to]]; consumer != owner {
		port.xchan = &linkChan{
			dst:    port.peer,
			inPort: peerPort,
			eng:    consumer.eng,
			clk:    port.clk,
			net:    net,
			part:   consumer,
			prod:   owner,
		}
		consumer.inbox = append(consumer.inbox, port.xchan)
		net.chans = append(net.chans, port.xchan)
	}

	switch n := net.nodes[from].(type) {
	case *NIC:
		port.nic = n
		n.egress = port
		return &n.egress
	case *Switch:
		n.neighbors[idx] = to
		o := &n.out[idx]
		port.sw = o
		o.port = port
		return &o.port
	default:
		panic(fmt.Sprintf("fabric: unknown node type %T", n))
	}
}

// Reset returns the fabric to its just-built state for a new run on the
// same engines and topology, under a new seed and fault model: every
// port, switch and NIC resets, the counters zero, the per-switch ECN
// RNG streams reseed, boundary channels empty, the reap callback goes
// (the next run's owner installs its own), and the fault schedule's
// rank blocks are reserved and its first transitions queued again —
// exactly the sequence NewPartitioned performs, so a reset run is
// bit-identical to a freshly constructed one.
// The caller must Engine.Reset() every shard engine first (Reset
// schedules fault events on clean queues). The packet pools keep their
// chunks and reclaim every packet in them, the ones the previous run left
// in flight included.
//
// This is the zero-rebuild trial path: the fleet runner reuses one
// fabric per worker across the trials of a scenario instead of
// reconstructing topology, routing tables, VOQ matrices and port arrays
// per trial.
func (net *Network) Reset(seed uint64, faults *fault.Model) {
	if len(net.parts) > 1 && faults != nil {
		panic("fabric: a fault model requires a single-shard fabric")
	}
	net.Cfg.Seed = seed
	net.Cfg.Faults = faults
	net.reaped = nil
	for i := range net.clks {
		net.clks[i].Reset()
	}
	net.envClk.Reset()
	for _, p := range net.parts {
		p.pool.Reset()
		p.stats = Stats{}
		p.injected = 0
		p.downPorts = 0
		p.drained = 0
	}
	for _, c := range net.chans {
		c.reset()
	}
	for _, p := range net.parts {
		for i := range p.dirty {
			p.dirty[i] = nil
		}
		p.dirty = p.dirty[:0]
	}
	for i, l := 0, len(net.ports)/2; i < l; i++ {
		net.ports[2*i].flt = faults.Dir(i, false)
		net.ports[2*i+1].flt = faults.Dir(i, true)
	}
	for _, nic := range net.nics {
		if nic != nil {
			nic.reset()
		}
	}
	for _, sw := range net.switches {
		sw.reset()
		sw.rng.Seed(ecnSeed(seed, sw.id))
	}
	net.scheduleFaults(faults)
}

// ecnSeed seeds one switch's ECN marking stream. Per-switch streams (not
// one fabric-wide RNG) keep the marking decisions of each switch a pure
// function of that switch's own traffic, which is what lets shards run
// switches concurrently without perturbing results.
func ecnSeed(seed uint64, id packet.NodeID) uint64 {
	return sim.DeriveSeed(seed^0xfab51c, "ecn", int(id))
}

// OnReap installs fn to receive every source a NIC reaps from now on. A
// NIC reaps a source once it is Done, and from then on the fabric holds no
// reference to it: a late control packet for its flow counts as Stray. So
// fn may hand the source to a new flow. fn runs on the goroutine of the
// shard owning the NIC. Reset removes it; there is one per fabric.
func (net *Network) OnReap(fn func(transport.Source)) { net.reaped = fn }

// Shards reports the number of partitions the fabric runs across.
func (net *Network) Shards() int { return len(net.parts) }

// ShardOf returns the partition index owning a node.
func (net *Network) ShardOf(n packet.NodeID) int { return net.partOf[n] }

// EngineOf returns the engine owning a node's partition.
func (net *Network) EngineOf(n packet.NodeID) *sim.Engine { return net.parts[net.partOf[n]].eng }

// Clock returns a node's rank clock: external schedulers (the experiment
// launcher's flow arrivals) rank their events under the node they touch,
// keeping the canonical order shard-invariant.
func (net *Network) Clock(n packet.NodeID) *sim.Clock { return &net.clks[n] }

// DrainedBy reports how many boundary occurrences have been drained into
// shard i's engine so far this run — a shard-runtime diagnostic (zero on
// a single-shard fabric, which has no boundary channels).
func (net *Network) DrainedBy(i int) uint64 { return net.parts[i].drained }

// DrainAll moves every pending inbound cross-shard event into its
// consumer engine — the sim.RunWindows barrier hook. Must only run while
// every shard is quiescent. Only channels on a producer's dirty list are
// visited: a barrier where nothing crossed any boundary costs one
// empty-slice check per partition.
func (net *Network) DrainAll() {
	for _, p := range net.parts {
		if len(p.dirty) == 0 {
			continue
		}
		for i, c := range p.dirty {
			c.drain()
			p.dirty[i] = nil
		}
		p.dirty = p.dirty[:0]
	}
}

// NIC returns the NIC of host h.
func (net *Network) NIC(h packet.NodeID) *NIC {
	if int(h) >= len(net.nics) || net.nics[h] == nil {
		panic(fmt.Sprintf("fabric: node %d is not a host", h))
	}
	return net.nics[h]
}

// Pool returns the packet free-list of partition 0 — the fabric's only
// pool when single-shard. Transports never call this; they use their
// NIC's Pool, which is partition-correct.
func (net *Network) Pool() *packet.Pool { return net.parts[0].pool }

// PoolLive sums the packets currently checked out across every
// partition's pool. Packets may die on a different shard than they were
// allocated on (a boundary crossing hands the pointer over), making a
// single pool's Live signed; the sum is the fabric-wide total.
func (net *Network) PoolLive() int {
	n := 0
	for _, p := range net.parts {
		n += p.pool.Live()
	}
	return n
}

// PoolCap sums the packets every partition's pool owns — the fabric's
// packet memory, which a run on a warm fabric must not grow.
func (net *Network) PoolCap() int {
	n := 0
	for _, p := range net.parts {
		n += p.pool.Cap()
	}
	return n
}

// Stats sums the per-partition fabric counters.
func (net *Network) Stats() Stats {
	var t Stats
	for _, p := range net.parts {
		s := &p.stats
		t.Delivered += s.Delivered
		t.CtrlDeliv += s.CtrlDeliv
		t.Drops += s.Drops
		t.FaultDrops += s.FaultDrops
		t.Corrupted += s.Corrupted
		t.ECNMarked += s.ECNMarked
		t.PauseFrames += s.PauseFrames
		t.ResumeFrames += s.ResumeFrames
		t.DataBytes += s.DataBytes
	}
	return t
}

// Census derives the packet-conservation counters: the injections the
// partitions count, and every exit from its Stats counter.
func (net *Network) Census() Census {
	s := net.Stats()
	c := Census{
		Delivered:     s.Delivered + s.CtrlDeliv,
		OverflowDrops: s.Drops,
		FaultDrops:    s.FaultDrops,
		Corrupted:     s.Corrupted,
	}
	for _, p := range net.parts {
		c.Injected += p.injected
	}
	return c
}

// HandleEvent implements sim.Handler: a scheduled fault-model transition.
// The payload rides in the argument (directed-link index << 32 | schedule
// index), so no event object exists per transition. The direction's next
// transition is queued here under its reserved rank; one due at this same
// instant lands in the wheel's late heap and still fires in rank order.
func (net *Network) HandleEvent(_ uint8, arg uint64) {
	d, ci := int(arg>>32), int(arg&0xffffffff)
	port, sched := net.ports[d], net.Cfg.Faults.Dirs()[d].Sched
	if next := ci + 1; next < len(sched) {
		port.eng.ScheduleRanked(sched[next].At, net.faultRank[d]+uint64(next), net, 0, arg+1)
	}
	port.applyChange(sched[ci])
}

// BDPCap returns IRN's BDP-FC cap in packets for this fabric: the
// longest-path BDP in bytes divided by the wire MTU (§3.2). For the
// default 40 Gbps / 2 µs / 6-hop fabric with a 1000 B MTU this is ~113
// packets, matching the paper's "∼110 MTU-sized packets".
func (net *Network) BDPCap() int {
	return BDPCap(net.Cfg.Rate, net.Cfg.Prop, net.Topo.LongestPathHops(), net.Cfg.MTU)
}

// BDPCap is Network.BDPCap computed before the fabric is built.
func BDPCap(r Rate, prop sim.Duration, hops, mtu int) int {
	return max(1, BDPBytes(r, prop, hops)/(mtu+packet.DataHeader))
}

// IdealFCT returns the empty-network completion time for a message of
// size bytes between two hosts: full-message serialization at line rate,
// plus per-hop store-and-forward of one MTU packet, plus path propagation.
// Slowdown metrics divide measured FCTs by this (§4.1 Metrics).
func (net *Network) IdealFCT(src, dst packet.NodeID, size int) sim.Duration {
	hops := net.Topo.PathHops(src, dst)
	pkts := (size + net.Cfg.MTU - 1) / net.Cfg.MTU
	if pkts < 1 {
		pkts = 1
	}
	wire := size + pkts*packet.DataHeader
	last := net.Cfg.MTU + packet.DataHeader
	if pkts == 1 {
		last = wire
	}
	d := net.Cfg.Rate.Serialize(wire)                        // source serialization
	d += sim.Duration(hops-1) * net.Cfg.Rate.Serialize(last) // store-and-forward of final packet
	d += sim.Duration(hops) * net.Cfg.Prop                   // propagation
	return d
}
