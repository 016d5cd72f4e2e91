package fabric

import (
	"fmt"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// NIC is a host network interface: a single egress port toward the host's
// edge switch, shared by all of the host's queue pairs. Data sources are
// arbitrated round-robin ("the sender QP... periodically polls the MAC
// layer until the link is available", §4.1); transport control packets
// (ACK/NACK/CNP) take strict priority since they are latency-critical and
// tiny — their bandwidth is still consumed on the wire.
//
// Host ingress is modelled with infinite drain rate: arriving packets are
// handed to the destination transport immediately, so hosts never assert
// PFC toward the fabric. Hosts do obey PFC asserted by their switch.
type NIC struct {
	id   packet.NodeID
	net  *Network
	part *partition // the shard slice this host belongs to

	egress outPort
	ctrl   packet.Queue

	sources []transport.Source
	rr      int
	flows   flowTable    // the flows attached now
	retired retiredTable // the flows whose receivers retired here

	wake *sim.Timer

	// Stray counts packets that arrived for an unknown flow (e.g. late
	// duplicate ACKs after the source detached); they are dropped.
	Stray uint64
}

// nicWake is the NIC's only sim.Handler event kind: the egress wake-up
// timer expiring.
const nicWake uint8 = 0

func newNIC(id packet.NodeID, net *Network, part *partition) *NIC {
	n := &NIC{
		id:   id,
		net:  net,
		part: part,
		// Room for a handful of concurrent flows and a dozen retired
		// ones, so that on most hosts of a large fabric a run never grows
		// any of them; reset keeps whatever they grew to.
		sources: make([]transport.Source, 0, 8),
		flows:   flowTable{slots: make([]flowEntry, 8)},
		retired: retiredTable{slots: make([]retiredEntry, 16)},
	}
	n.wake = sim.NewHandlerTimer(part.eng, &net.clks[id], n, nicWake)
	return n
}

// HandleEvent implements sim.Handler: the wake timer fired.
func (n *NIC) HandleEvent(uint8, uint64) { n.egress.kick() }

// reset returns the NIC to its just-built state for a new run: no
// attached transports, an empty control queue, and the wake timer
// disarmed (its pending engine event was discarded by Engine.Reset, so
// the timer's own bookkeeping must be cleared with it).
func (n *NIC) reset() {
	n.egress.reset()
	n.ctrl.Reset()
	for i := range n.sources {
		n.sources[i] = nil
	}
	n.sources = n.sources[:0]
	n.rr = 0
	n.flows.clear()
	n.retired.clear()
	n.wake.Reset()
	n.Stray = 0
}

// ID returns the host node ID.
func (n *NIC) ID() packet.NodeID { return n.id }

// Now implements transport.Endpoint.
func (n *NIC) Now() sim.Time { return n.part.eng.Now() }

// Engine implements transport.Endpoint: the engine of the shard owning
// this host.
func (n *NIC) Engine() *sim.Engine { return n.part.eng }

// Clock implements transport.Endpoint: the host node's rank clock.
func (n *NIC) Clock() *sim.Clock { return &n.net.clks[n.id] }

// Pool implements transport.Endpoint: the owning shard's packet
// free-list.
func (n *NIC) Pool() *packet.Pool { return n.part.pool }

// SendControl implements transport.Endpoint: queues a control packet with
// strict priority on the egress port.
func (n *NIC) SendControl(pkt *packet.Packet) {
	n.ctrl.Push(pkt)
	n.egress.kick()
}

// Wake implements transport.Endpoint.
func (n *NIC) Wake() { n.egress.kick() }

// AttachSource registers a sender on this NIC and kicks the scheduler.
func (n *NIC) AttachSource(s transport.Source) {
	n.sources = append(n.sources, s)
	n.attach(s.Flow().ID, s, nil)
	n.egress.kick()
}

// AttachSink registers a receiver for a flow. It stays until Retire, or
// for the run: a late duplicate must find either the receiver or its
// record, which re-acknowledge it alike.
func (n *NIC) AttachSink(id packet.FlowID, s transport.Sink) {
	n.attach(id, nil, s)
}

// Attached returns flow id's source and sink on this NIC: nil for a side
// never attached here, or reaped or retired since.
func (n *NIC) Attached(id packet.FlowID) (transport.Source, transport.Sink) {
	if e := n.flows.find(id); e != nil {
		return e.src, e.sink
	}
	return nil, nil
}

// Retire replaces the sink of flow id, a transport.Retirer whose flow has
// completed, with its transport.Retired record and returns the sink. The
// record, kept in the NIC's retired table for the rest of the run,
// answers the flow's late duplicates from here on, and the NIC holds no
// reference to the sink: the caller may Init it for another flow. A
// missing sink, or one that cannot retire, is a model bug and panics.
func (n *NIC) Retire(id packet.FlowID) transport.Sink {
	e := n.flows.find(id)
	if e == nil || e.sink == nil {
		panic(fmt.Sprintf("fabric: host %d: flow %d retired without a sink", n.id, id))
	}
	r, ok := e.sink.(transport.Retirer)
	if !ok {
		panic(fmt.Sprintf("fabric: host %d: flow %d: sink %T cannot retire", n.id, id, e.sink))
	}
	n.flows.drop(id, false)
	n.retired.insert(id, r.Retired())
	return r
}

// attach enters a source or a sink in the flow table. Two workloads
// numbering their flows from the same base would overwrite each other's
// transports here and misdeliver in silence, so a taken slot is a model
// bug and panics.
func (n *NIC) attach(id packet.FlowID, src transport.Source, sink transport.Sink) {
	if n.flows.attach(id, src, sink) {
		panic(fmt.Sprintf("fabric: host %d: flow %d attached twice", n.id, id))
	}
}

// nextPacket supplies the egress port's next packet.
func (n *NIC) nextPacket() *packet.Packet {
	if pkt := n.ctrl.Pop(); pkt != nil {
		return pkt
	}
	now := n.part.eng.Now()
	var earliest sim.Time
	haveWake := false

	cnt := len(n.sources)
	idx := n.rr
	if idx >= cnt {
		idx = 0
	}
	// Conditional wrap instead of modulo, as in swOut.nextPacket: this
	// arbitration scan runs once per transmitted packet.
	for i := 0; i < cnt; i++ {
		src := n.sources[idx]
		cur := idx
		if idx++; idx == cnt {
			idx = 0
		}
		if src.Done() {
			continue // reaped below
		}
		ready, at := src.HasData(now)
		if ready {
			n.rr = cur + 1
			pkt := src.NextPacket(now)
			if pkt == nil {
				continue
			}
			n.reap()
			return pkt
		}
		if at > now && (!haveWake || at < earliest) {
			earliest, haveWake = at, true
		}
	}
	n.reap()
	if haveWake {
		n.wake.ArmAt(earliest)
	}
	return nil
}

// reap removes completed sources and hands each to the network's reap
// callback, if any. Called outside the arbitration scan.
func (n *NIC) reap() {
	keep := n.sources[:0]
	removed := false
	for _, s := range n.sources {
		if s.Done() {
			n.flows.drop(s.Flow().ID, true)
			if f := n.net.reaped; f != nil {
				f(s)
			}
			removed = true
			continue
		}
		keep = append(keep, s)
	}
	if removed {
		for i := len(keep); i < len(n.sources); i++ {
			n.sources[i] = nil
		}
		n.sources = keep
		if len(n.sources) > 0 {
			n.rr %= len(n.sources)
		} else {
			n.rr = 0
		}
	}
}

// receive handles a packet arriving from the fabric. Delivery is where
// packets die: once the transport handler returns, the packet goes back to
// the pool. Transports therefore must not retain the *Packet past
// HandleData/HandleControl — they read the fields they need and emit fresh
// control packets instead, which every transport in this repo does.
func (n *NIC) receive(pkt *packet.Packet, _ int) {
	now := n.part.eng.Now()
	if pkt.Type == packet.TypeData {
		n.part.stats.Delivered++
		n.part.stats.DataBytes += uint64(pkt.Wire)
		if e := n.flows.find(pkt.Flow); e != nil && e.sink != nil {
			e.sink.HandleData(pkt, now)
		} else if rec := n.retired.find(pkt.Flow); rec != nil {
			rec.Answer(n, n.id, pkt, now)
		} else {
			n.Stray++
		}
	} else {
		n.part.stats.CtrlDeliv++
		if e := n.flows.find(pkt.Flow); e != nil && e.src != nil {
			e.src.HandleControl(pkt, now)
		} else {
			n.Stray++
		}
	}
	n.part.pool.Release(pkt)
}

// pfcFrame pauses or resumes the NIC egress (PFC asserted by the edge
// switch).
func (n *NIC) pfcFrame(_ int, pause bool) {
	if pause {
		n.egress.pause()
	} else {
		n.egress.resume()
	}
}

// flowEntry is one flow's transports on a NIC. A slot with neither is
// empty.
type flowEntry struct {
	flow packet.FlowID
	src  transport.Source
	sink transport.Sink
}

func (e *flowEntry) empty() bool { return e.src == nil && e.sink == nil }

// flowTable maps the flows attached to a NIC to their transports: an
// open-addressed, linearly probed array in place of two Go maps, so the
// per-packet receive lookup is one multiplicative hash and (nearly always)
// one slot, and a run on a warm NIC attaches flows without allocating —
// clear keeps the array. The slot count is a power of two and at most
// three quarters of the slots are taken.
type flowTable struct {
	slots []flowEntry
	n     int
}

// home is the slot id's probe run starts at.
func (t *flowTable) home(id packet.FlowID) int {
	return int(mix64(uint64(id))) & (len(t.slots) - 1)
}

// probe returns the slot holding id, or else the empty slot where id's
// probe run ends.
func (t *flowTable) probe(id packet.FlowID) int {
	i := t.home(id)
	for e := &t.slots[i]; !e.empty() && e.flow != id; e = &t.slots[i] {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// find returns id's entry, or nil. The pointer is valid until the table
// next changes.
func (t *flowTable) find(id packet.FlowID) *flowEntry {
	if e := &t.slots[t.probe(id)]; !e.empty() {
		return e
	}
	return nil
}

// attach sets the source or the sink (whichever is non-nil) of id's
// entry, inserting the entry if absent, and reports whether that side was
// already set.
func (t *flowTable) attach(id packet.FlowID, src transport.Source, sink transport.Sink) (taken bool) {
	e := &t.slots[t.probe(id)]
	if e.empty() {
		if t.n++; 4*t.n > 3*len(t.slots) {
			old := t.slots
			t.slots = make([]flowEntry, 2*len(old))
			for i := range old {
				if !old[i].empty() {
					t.slots[t.probe(old[i].flow)] = old[i]
				}
			}
			e = &t.slots[t.probe(id)]
		}
		e.flow = id
	}
	if src != nil {
		taken, e.src = e.src != nil, src
	} else {
		taken, e.sink = e.sink != nil, sink
	}
	return taken
}

// drop detaches id's source (src) or sink, and removes the entry if
// neither is left on it: the entries after it in its probe run move up
// over the hole (backward-shift deletion), so lookups need no tombstones
// and the table's size follows the flows attached now, not all those ever
// seen.
func (t *flowTable) drop(id packet.FlowID, src bool) {
	hole := t.probe(id)
	e := &t.slots[hole]
	if src {
		if e.src == nil {
			return // absent
		}
		e.src = nil
	} else {
		if e.sink == nil {
			return // absent
		}
		e.sink = nil
	}
	if !e.empty() {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; !t.slots[i].empty(); i = (i + 1) & mask {
		// The entry at i may move into the hole unless its home lies
		// cyclically in (hole, i]: a probe from home would then miss it.
		if (i-t.home(t.slots[i].flow))&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = flowEntry{}
}

// clear empties the table, keeping its array.
func (t *flowTable) clear() {
	clear(t.slots)
	t.n = 0
}

// retiredEntry is one retired flow's record on a NIC. A slot with an
// empty record is free. 32 bytes, two to a cache line.
type retiredEntry struct {
	flow packet.FlowID
	rec  transport.Retired
}

// retiredTable maps the flows retired on a NIC to their records: open
// addressed and linearly probed like flowTable, but a record stays for
// the run, so entries are only ever inserted, and clear keeps the array
// for the next run. The slot count is a power of two and at most three
// quarters of the slots are taken.
type retiredTable struct {
	slots []retiredEntry
	n     int
}

// find returns id's record, or nil. The pointer is valid until the next
// insert.
func (t *retiredTable) find(id packet.FlowID) *transport.Retired {
	mask := len(t.slots) - 1
	for i := int(mix64(uint64(id))) & mask; !t.slots[i].rec.Empty(); i = (i + 1) & mask {
		if t.slots[i].flow == id {
			return &t.slots[i].rec
		}
	}
	return nil
}

// insert enters id's record, which must not be empty. A flow retires
// once, so id is not in the table yet.
func (t *retiredTable) insert(id packet.FlowID, rec transport.Retired) {
	if t.n++; 4*t.n > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]retiredEntry, 2*len(old))
		for i := range old {
			if !old[i].rec.Empty() {
				t.put(old[i])
			}
		}
	}
	t.put(retiredEntry{flow: id, rec: rec})
}

// put stores e in the first free slot of its probe run.
func (t *retiredTable) put(e retiredEntry) {
	mask := len(t.slots) - 1
	i := int(mix64(uint64(e.flow))) & mask
	for !t.slots[i].rec.Empty() {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}

// clear empties the table, keeping its array.
func (t *retiredTable) clear() {
	clear(t.slots)
	t.n = 0
}
