// Package packet defines the simulation's wire model: data packets,
// acknowledgements (cumulative ACKs and IRN NACK/SACKs), DCQCN congestion
// notification packets, and PFC pause/resume frames, together with the
// RoCEv2/IRN header layouts (BTH, RETH, AETH and the IRN extensions) and
// their binary encodings.
//
// The event-driven fabric passes *Packet values around without
// serialization for speed; the verbs layer and the hardware model encode
// and decode the real byte layouts to validate header arithmetic.
package packet

import (
	"fmt"

	"github.com/irnsim/irn/internal/sim"
)

// NodeID identifies a host or switch in the topology.
type NodeID int32

// FlowID uniquely identifies a flow (one message transfer between a
// source/destination queue pair).
type FlowID uint64

// PSN is a 24-bit packet sequence number as used by the RoCE transport.
// We keep it in a uint32 and mask to 24 bits only at the wire-encoding
// boundary; inside the simulator sequence numbers are monotonically
// increasing so window arithmetic never wraps.
type PSN = uint32

// Type discriminates simulation packets: data, or one of the transport
// control packets. PFC frames are port events (see fabric), not packets.
type Type uint8

// Packet types.
const (
	TypeData Type = iota // transport payload segment
	TypeAck              // cumulative acknowledgement
	TypeNack             // IRN NACK (cumulative + SACK) or RoCE NACK (expected PSN)
	TypeCNP              // DCQCN congestion notification packet
)

// String implements fmt.Stringer for packet types.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeAck:
		return "ACK"
	case TypeNack:
		return "NACK"
	case TypeCNP:
		return "CNP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Wire sizes in bytes. A RoCEv2 data packet carries Ethernet (18 including
// FCS), IPv4 (20), UDP (8), BTH (12) and ICRC (4) around the payload.
// Control packets occupy a minimum Ethernet frame.
const (
	EthOverhead  = 18
	IPv4Header   = 20
	UDPHeader    = 8
	BTHSize      = 12
	ICRCSize     = 4
	RETHSize     = 16 // remote memory address (8) + rkey (4) + length (4)
	AETHSize     = 4
	IRNExtSize   = 6  // recv_WQE_SN (3) + relative offset (3), §5.3.2
	ControlFrame = 64 // ACK/NACK/CNP/PFC minimum frame on the wire

	// DataHeader is the per-packet overhead of a standard RoCEv2 data
	// packet without IRN extensions.
	DataHeader = EthOverhead + IPv4Header + UDPHeader + BTHSize + ICRCSize

	// DefaultMTU is the RDMA payload MTU the paper assumes (1KB).
	DefaultMTU = 1000
)

// Packet is a unit of transmission in the fabric. One struct covers all
// packet types; unused fields are zero. Packets are obtained from a
// per-engine Pool at transmission and returned to it where they die
// (delivery at the destination NIC, a switch drop); they are never mutated
// after send, except for the CE (ECN congestion-experienced) bit which
// switches set in flight.
//
// The struct is exactly 64 bytes on 64-bit platforms and pooled packets
// are 64-byte aligned, so each packet is one cache line: the 8-byte
// fields first, then the 4-byte ones, then the one-byte flags, with no
// interior padding. TestPacketLayout holds the size.
type Packet struct {
	// next is the packet's one intrusive link, and held (below) names
	// what is currently using it. A packet sits in at most one place at a
	// time — a Pool's free list, then hop by hop a Queue (NIC control
	// queue or switch VOQ) followed by a port's in-flight Queue, then the
	// pool again — so one link serves them all and no holder needs a
	// backing array. held exists only to catch lifecycle bugs (double
	// release, release or re-queue of a packet still queued)
	// deterministically instead of as silent state corruption.
	next *Packet

	Flow FlowID

	// SentAt is the data packet's transmission timestamp. On an ACK or
	// NACK it is the echoed SentAt of the data packet that triggered it,
	// so the sender can compute RTTs (Timely, dynamic RTO).
	SentAt sim.Time

	// Verbs optionally carries a verbs-layer packet through the fabric,
	// so the RDMA semantics layer can run end-to-end over the simulated
	// network. The referenced value is this packet's own copy — its
	// sender never touches it again — and becomes the receiver's;
	// receivers must take the pointer before returning (the NIC releases
	// the fabric packet — clearing this field — as soon as the handler
	// returns).
	Verbs *VPacket

	// Wire is the total size on the wire in bytes, including all
	// headers; this is what consumes link capacity and buffer space.
	Wire int32

	Src NodeID // originating host
	Dst NodeID // destination host

	// PSN is the packet sequence number for data packets, or for ACK
	// family packets the PSN being (n)acked (see CumAck/SackPSN).
	PSN PSN

	// CumAck is the receiver's expected sequence number (cumulative
	// acknowledgement) carried by ACK and NACK packets.
	CumAck PSN
	// SackPSN is the out-of-order PSN that triggered an IRN NACK
	// (the simplified selective acknowledgement of §3.1).
	SackPSN PSN

	Type Type

	// Last marks the final packet of a message.
	Last bool

	// ECN bits: ECT is set by senders whose congestion control
	// understands marking; CE is set by a switch when the packet
	// experienced congestion. The receiver echoes CE via CNPs (DCQCN)
	// or the ECE flag on ACKs (DCTCP).
	ECT bool
	CE  bool
	// ECNEcho is set on ACK packets to echo a CE-marked data packet
	// back to the sender (window-based ECN schemes).
	ECNEcho bool

	held holder
}

// holder names what currently links a packet through next.
type holder uint8

const (
	heldByNone  holder = iota // loose: owned by whoever holds the pointer
	heldByQueue               // linked in a Queue
	heldByPool                // linked in a Pool's free list
)

// Queue is an intrusive FIFO of packets, linked through the packets
// themselves: a 16-byte header of two pointers with no backing array, so
// an empty queue costs nothing, a deep one pins nothing once drained, and
// push and pop touch only the header and the packets involved. It keeps
// no count: Len walks the list, which only the end-of-run census does. A
// packet can be in at most one Queue at a time (Push panics otherwise).
// The zero value is an empty queue.
type Queue struct {
	head, tail *Packet
}

// Push appends p.
func (q *Queue) Push(p *Packet) {
	if p.held != heldByNone {
		panic("packet: push of a packet that is already queued or pooled")
	}
	p.held = heldByQueue
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// Pop removes and returns the head, or nil if the queue is empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	if q.head = p.next; q.head == nil {
		q.tail = nil
	}
	p.next, p.held = nil, heldByNone
	return p
}

// Len returns the number of queued packets, walking the list: it is for
// censuses and tests, not the datapath.
func (q *Queue) Len() int {
	n := 0
	for p := q.head; p != nil; p = p.next {
		n++
	}
	return n
}

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.head == nil }

// Reset empties the queue for a new run. The packets it held are left as
// they are, still marked queued, for Pool.Reset to reclaim.
func (q *Queue) Reset() { *q = Queue{} }

// IsControl reports whether the packet is a transport control packet
// (ACK/NACK/CNP): every packet that is not data.
func (p *Packet) IsControl() bool { return p.Type != TypeData }

// String renders a compact human-readable description for debugging.
func (p *Packet) String() string {
	switch p.Type {
	case TypeData:
		last := ""
		if p.Last {
			last = " last"
		}
		return fmt.Sprintf("DATA flow=%d psn=%d wire=%d%s", p.Flow, p.PSN, p.Wire, last)
	case TypeAck:
		return fmt.Sprintf("ACK flow=%d cum=%d", p.Flow, p.CumAck)
	case TypeNack:
		return fmt.Sprintf("NACK flow=%d cum=%d sack=%d", p.Flow, p.CumAck, p.SackPSN)
	case TypeCNP:
		return fmt.Sprintf("CNP flow=%d", p.Flow)
	default:
		return p.Type.String()
	}
}

// Pool is a free-list of Packets owned by one simulation engine. Every
// constructor (NewData/NewAck/NewNack/NewCNP) draws from it and Release
// returns dead packets to it. The pool grows a chunk of packets at a
// time and keeps every chunk it ever allocated, so a run's heap cost is
// one allocation per poolChunk packets of peak occupancy and a warmed-up
// simulation allocates no packets at all.
//
// The pool is deliberately NOT a sync.Pool: the simulator is
// single-threaded per engine (the fleet runner shards whole scenarios, one
// engine each, across workers), and a plain LIFO stack — threaded through
// the packets' own link field — keeps both the reuse order and the
// resulting pointer graph fully deterministic, which the serial ≡ parallel
// bit-identical-results invariant depends on. sync.Pool's per-P caches and
// GC-driven eviction would make reuse order scheduler-dependent and defeat
// the determinism tests.
//
// All methods are nil-receiver safe: a nil *Pool degrades to plain heap
// allocation with Release as a no-op, which is what the package-level
// constructors (unit tests, microbenchmarks, the verbs examples) use.
type Pool struct {
	free   *Packet // top of the free stack
	nfree  int
	chunks [][]Packet // every array the pool owns, in allocation order
}

// poolChunk is the number of packets per heap allocation: 512 × 64 B =
// 32 KB, which the Go allocator serves as a large object — page-aligned
// and without a header — so every pooled packet starts a cache line
// (TestPacketLayout checks it). A smaller chunk would be a small object,
// which carries an 8-byte malloc header in front of it because packets
// hold pointers, and every packet would straddle two lines.
const poolChunk = 512

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// thread pushes every packet of c on the free stack, c[0] on top.
func (p *Pool) thread(c []Packet) {
	for i := len(c) - 1; i >= 0; i-- {
		c[i] = Packet{next: p.free, held: heldByPool}
		p.free = &c[i]
	}
	p.nfree += len(c)
}

// get returns a packet off the free stack, growing the pool by one chunk
// when the stack is empty.
func (p *Pool) get() *Packet {
	if p == nil {
		return &Packet{}
	}
	if p.free == nil {
		c := make([]Packet, poolChunk)
		p.chunks = append(p.chunks, c)
		p.thread(c)
	}
	pkt := p.free
	p.free = pkt.next
	p.nfree--
	pkt.next, pkt.held = nil, heldByNone
	return pkt
}

// Release returns a dead packet to the free list. Call it exactly once,
// at the point the packet leaves the simulation: delivery to the
// destination host's transport, or a drop at a switch. Releasing the same
// packet twice, or while it still sits in a Queue, panics — the aliasing
// it would create corrupts simulation state in ways that are far harder to
// debug than a crash. Release on a nil pool (or of a nil packet) is a
// no-op, so unpooled packets from the package-level constructors may flow
// through the same code paths.
func (p *Pool) Release(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	switch pkt.held {
	case heldByPool:
		panic("packet: double release into pool")
	case heldByQueue:
		panic("packet: release of a packet that is still queued")
	}
	*pkt = Packet{next: p.free, held: heldByPool}
	p.free = pkt
	p.nfree++
}

// FreeLen reports how many packets sit in the free list (diagnostics).
func (p *Pool) FreeLen() int {
	if p == nil {
		return 0
	}
	return p.nfree
}

// Cap reports how many packets the pool owns: poolChunk per allocation it
// has made. It never shrinks; a run on a warm pool leaves it unchanged.
// Nil-safe.
func (p *Pool) Cap() int {
	if p == nil {
		return 0
	}
	return len(p.chunks) * poolChunk
}

// Reset reclaims every packet the pool owns for a new run: the free stack
// is rebuilt through all chunks in allocation order, so the next run draws
// the same packets in the same order whatever the previous one left
// behind. Packets still checked out when that run stopped (in flight at
// the deadline) come back with the rest — every queue that held them has
// been Reset by then — and packets adopted from elsewhere (another shard's
// pool, the package-level constructors) are dropped. Nil-safe.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	p.free, p.nfree = nil, 0
	for i := len(p.chunks) - 1; i >= 0; i-- {
		p.thread(p.chunks[i])
	}
}

// Live reports the packets currently checked out: those the pool owns
// minus those on its free list. Adopting a foreign packet lowers it and a
// packet that dies in another shard's pool stays counted here, so one
// pool's Live is signed; summed over a fabric's pools it is the number of
// packets alive. Nil-safe.
func (p *Pool) Live() int {
	if p == nil {
		return 0
	}
	return p.Cap() - p.nfree
}

// NewData builds a data packet with standard RoCEv2 overheads.
func (p *Pool) NewData(flow FlowID, src, dst NodeID, psn PSN, payload int, last bool) *Packet {
	pkt := p.get()
	*pkt = Packet{
		Type: TypeData,
		Flow: flow,
		Src:  src,
		Dst:  dst,
		PSN:  psn,
		Wire: int32(payload + DataHeader),
		Last: last,
	}
	return pkt
}

// NewAck builds a cumulative ACK.
func (p *Pool) NewAck(flow FlowID, src, dst NodeID, cum PSN) *Packet {
	pkt := p.get()
	*pkt = Packet{
		Type:   TypeAck,
		Flow:   flow,
		Src:    src,
		Dst:    dst,
		CumAck: cum,
		Wire:   ControlFrame,
	}
	return pkt
}

// NewNack builds an IRN NACK carrying both the cumulative acknowledgement
// and the PSN of the out-of-order arrival that triggered it.
func (p *Pool) NewNack(flow FlowID, src, dst NodeID, cum, sack PSN) *Packet {
	pkt := p.get()
	*pkt = Packet{
		Type:    TypeNack,
		Flow:    flow,
		Src:     src,
		Dst:     dst,
		CumAck:  cum,
		SackPSN: sack,
		Wire:    ControlFrame,
	}
	return pkt
}

// NewCNP builds a DCQCN congestion notification packet.
func (p *Pool) NewCNP(flow FlowID, src, dst NodeID) *Packet {
	pkt := p.get()
	*pkt = Packet{Type: TypeCNP, Flow: flow, Src: src, Dst: dst, Wire: ControlFrame}
	return pkt
}

// nilPool backs the package-level constructors: plain heap allocation.
var nilPool *Pool

// NewData builds an unpooled data packet with standard RoCEv2 overheads.
func NewData(flow FlowID, src, dst NodeID, psn PSN, payload int, last bool) *Packet {
	return nilPool.NewData(flow, src, dst, psn, payload, last)
}

// NewAck builds an unpooled cumulative ACK.
func NewAck(flow FlowID, src, dst NodeID, cum PSN) *Packet {
	return nilPool.NewAck(flow, src, dst, cum)
}

// NewNack builds an unpooled IRN NACK carrying both the cumulative
// acknowledgement and the PSN of the out-of-order arrival that triggered
// it.
func NewNack(flow FlowID, src, dst NodeID, cum, sack PSN) *Packet {
	return nilPool.NewNack(flow, src, dst, cum, sack)
}

// NewCNP builds an unpooled DCQCN congestion notification packet.
func NewCNP(flow FlowID, src, dst NodeID) *Packet {
	return nilPool.NewCNP(flow, src, dst)
}
