package verbs

import (
	"fmt"

	"github.com/irnsim/irn/internal/bitmap"
	"github.com/irnsim/irn/internal/fifo"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
)

// Config parameterizes a QP.
type Config struct {
	MTU      int
	BDPCap   int          // request packets in flight (BDP-FC), at most PSNWindow; rounded up to a power of two, the request space's window
	RTOLow   sim.Duration // short timeout (few packets in flight)
	RTOHigh  sim.Duration
	RTOLowN  int
	RNRDelay sim.Duration // back-off after a receiver-not-ready NACK

	// GoBackN selects the baseline RoCE loss recovery instead of IRN's
	// selective retransmission: the responder drops out-of-order
	// arrivals (no OOO placement) and the requester rewinds the whole
	// window from the cumulative ack on every NACK or timeout.
	GoBackN bool

	// MaxRetries bounds consecutive recovery attempts (timeouts + RNR
	// NACKs with no cumulative progress in between). When exceeded the
	// QP goes dead: every incomplete WQE is flushed with
	// StatusRetryExceeded so callers get an error instead of a hang.
	// Zero means retry forever (the pre-existing behavior).
	MaxRetries int
}

// DefaultConfig returns sane defaults for tests and examples.
func DefaultConfig() Config {
	return Config{
		MTU:      1000,
		BDPCap:   110,
		RTOLow:   100 * sim.Microsecond,
		RTOHigh:  320 * sim.Microsecond,
		RTOLowN:  3,
		RNRDelay: 200 * sim.Microsecond,
	}
}

// Request is a work request posted to a QP's send queue.
type Request struct {
	ID    uint64
	Op    OpType
	Data  []byte // payload for Write/Send
	RKey  uint32 // remote region (Write/Read/Atomic)
	VA    uint64 // remote offset
	Local []byte // destination buffer for Read / atomic result landing
	Imm   uint32 // immediate data (WriteImm, Send*)
	// InvKey is the remote rkey revoked by SendInv.
	InvKey uint32
	// Fence delays this request until all prior requests completed
	// (§5.3.4, Appendix B.5). SendInv is always fenced.
	Fence bool
	// Atomic operands.
	Add, Cmp, Swap uint64
}

// reqWQE is an in-flight Request WQE at the requester.
type reqWQE struct {
	req      Request
	msgIdx   uint32 // posted order
	firstPSN uint32
	pkts     int
	// done tracks read/atomic data arrival.
	dataRemaining int
	expired       bool    // request acknowledged via MSN
	completed     bool    // CQE generated
	atomicVal     uint64  // original value returned by an atomic
	next          *reqWQE // free-list link (QP.wqeFree)
}

// atomicResult records the original remote value.
func (w *reqWQE) atomicResult(v uint64) { w.atomicVal = v }

// RecvWQE is a Receive WQE: an application buffer consumed by Sends and
// Write-with-Immediates in posted order. Its recv_WQE_SN, assigned at
// post (or SRQ dequeue), is its position in the owning wqeRing.
type RecvWQE struct {
	ID   uint64
	Buf  []byte
	held bool // posted and not yet consumed
}

// pendingRead is a Read/Atomic request parked in the responder's Read WQE
// buffer (§5.3.2) until all earlier packets have arrived.
type pendingRead struct {
	psn      uint32
	sn       uint32 // read_WQE_SN
	op       OpType
	rkey     uint32
	va       uint64
	length   int
	cmp, add uint64
	swap     uint64
	executed bool
}

// stagedCQE is a premature CQE (§5.3.3): the last packet of a message
// arrived before its predecessors; the completion is staged "in main
// memory" until the cumulative point passes it. Staged entries live by
// value in a ring indexed by the sPSN of the message's last packet.
type stagedCQE struct {
	recvSN  uint32
	imm     uint32
	length  int
	invKey  uint32
	hasRecv bool // consumes a Receive WQE (Send*, WriteImm)
	valid   bool // slot holds a staged completion
}

// QP is one end of a reliable connection. Both endpoints are full QPs:
// each side can be requester and responder simultaneously.
type QP struct {
	name string
	eng  *sim.Engine
	clk  *sim.Clock // scheduling clock (nil = engine clock; set for sharded fabrics)
	cfg  Config
	wire Wire
	mem  *Memory
	cq   *CQ

	// attempts counts recovery entries (timeouts, RNR backoffs) since
	// the last cumulative advance; dead is set once it exceeds
	// Config.MaxRetries and the QP has flushed its WQEs.
	attempts int
	dead     bool

	// ---- Requester: request transmission (sPSN space, §5.4) ----
	reqWQEs  fifo.Queue[*reqWQE]
	posted   uint32              // messages posted
	expired  uint32              // messages expired via MSN
	fenceQ   fifo.Queue[Request] // requests held behind a fence
	tx       sendHalf
	rewind   uint32 // go-back-N only: next retained packet to resend
	rnrUntil sim.Time
	sendSSN  uint32 // recv_WQE_SN allocator (Send*, WriteImm)
	readSSN  uint32 // read_WQE_SN allocator

	// ---- Requester: read/atomic responses (rPSN space) ----
	readsOut     map[uint32]*reqWQE // read_WQE_SN → WQE awaiting data
	readsPending int                // reads/atomics whose data has not all arrived
	readCQ       uint32             // next read_WQE_SN due a CQE (posted order)
	rrx          *bitmap.TwoBitmap  // nil until the first read response arrives
	rrxExp       uint32

	// ---- Responder: request reception (sPSN space) ----
	rx       *bitmap.TwoBitmap
	rxExp    uint32
	rxMask   uint32 // W-1: arrivals W or more past rxExp are refused
	msn      uint32
	staged   []stagedCQE // W entries, by sPSN&rxMask of the last packet
	recvQ    recvProvider
	readBuf  map[uint32]*pendingRead // keyed by sPSN of the request packet
	readSNAt map[uint32]uint32       // read_WQE_SN → sPSN (dedupe)

	// ---- Responder: read/atomic response transmission (rPSN space) ----
	rtx sendHalf // rings made for the first response (sendReadResp)

	// Per-message objects come off free lists; the slabs are carved only
	// when a list is empty. A packet retained in a sendHalf is a master
	// that never leaves the QP: the wire is handed a copy per transmission
	// (sendCopy) and the cumulative ack frees the master (ack). A Request
	// WQE goes back on wqeFree once its CQE is delivered and it has
	// expired (recycleWQE).
	pkts    slab.Slab[VPacket]
	pktFree packet.VPacketStack
	wqes    slab.Slab[reqWQE]
	wqeFree *reqWQE

	// Stats.
	Retransmits, Timeouts, RNRNacks, Drops uint64
}

// recvProvider abstracts the QP's own receive queue vs a shared one.
type recvProvider interface {
	// next dequeues the Receive WQE with the given sequence number,
	// allotting sequence numbers on demand for SRQs (Appendix B.2).
	get(sn uint32) (RecvWQE, bool)
	// posted reports how many receive WQEs have sequence numbers
	// assigned or assignable right now.
	available(sn uint32) bool
	// consume marks sn consumed (CQE emitted).
	consume(sn uint32)
}

// NewQP builds a QP. wire sends packets toward the peer; mem is the
// memory exposed to the peer; cq receives completions.
func NewQP(name string, eng *sim.Engine, cfg Config, wire Wire, mem *Memory, cq *CQ) *QP {
	return NewQPOn(name, eng, nil, cfg, wire, mem, cq)
}

// NewQPOn builds a QP whose internal events (retransmission timers, RNR
// resume) are ranked by clk rather than the engine's own clock. On a
// sharded fabric every host-owned handler must schedule through the
// host's clock for the (time, rank) order — and therefore the results —
// to be independent of the partition; pass the owning NIC's Clock. A nil
// clk falls back to the engine clock (single-engine runs, tests).
func NewQPOn(name string, eng *sim.Engine, clk *sim.Clock, cfg Config, wire Wire, mem *Memory, cq *CQ) *QP {
	if cfg.MTU <= 0 || cfg.BDPCap <= 0 {
		panic("verbs: bad config")
	}
	if cfg.BDPCap > PSNWindow {
		panic(fmt.Sprintf("verbs: BDPCap %d exceeds the %d-PSN window", cfg.BDPCap, PSNWindow))
	}
	// The request space's rings are sized by the cap, as §6's NIC sizes
	// per-QP state by BDP-FC: the sender's retained packets and SACK
	// scoreboard, the receiver's 2-bitmap and staged CQEs.
	w := psnWindow(cfg.BDPCap)
	q := &QP{
		name:     name,
		eng:      eng,
		clk:      clk,
		cfg:      cfg,
		wire:     wire,
		mem:      mem,
		cq:       cq,
		readsOut: make(map[uint32]*reqWQE),
		rx:       bitmap.NewTwo(w),
		rxMask:   uint32(w - 1),
		staged:   make([]stagedCQE, w),
		readBuf:  make(map[uint32]*pendingRead),
		readSNAt: make(map[uint32]uint32),
		recvQ:    &wqeRing{},
	}
	q.tx.init(w, cfg.BDPCap)
	q.tx.timer = sim.NewHandlerTimer(eng, clk, q, qpTimer)
	q.rtx.timer = sim.NewHandlerTimer(eng, clk, q, qpReadTimer)
	return q
}

// QP sim.Handler event kinds.
const (
	qpTimer     uint8 = iota // request retransmission timer
	qpReadTimer              // read-response retransmission timer
	qpRNRResume              // RNR backoff elapsed (arg = rnrUntil generation)
)

// HandleEvent implements sim.Handler: timer and RNR-resume dispatch.
func (q *QP) HandleEvent(kind uint8, arg uint64) {
	switch kind {
	case qpTimer:
		q.onTimeout()
	case qpReadTimer:
		q.onReadTimeout()
	case qpRNRResume:
		if q.rnrUntil == sim.Time(arg) {
			q.pump()
		}
	}
}

// UseSRQ attaches a shared receive queue (Appendix B.2). The QP keeps
// its own recv_WQE_SN space over WQEs it dequeues from the pool.
func (q *QP) UseSRQ(srq *SRQ) { q.recvQ = &srqBinding{srq: srq} }

// PostRecv posts a Receive WQE to the QP's own receive queue.
func (q *QP) PostRecv(id uint64, buf []byte) {
	rq, ok := q.recvQ.(*wqeRing)
	if !ok {
		panic("verbs: QP uses an SRQ; post to the SRQ instead")
	}
	rq.post(RecvWQE{ID: id, Buf: buf})
}

// MSN exposes the responder's message sequence number (tests).
func (q *QP) MSN() uint32 { return q.msn }

// Expected exposes the responder's expected sPSN (tests).
func (q *QP) Expected() uint32 { return q.rxExp }

// PostSend posts a Request WQE and starts transmission. A malformed
// request is rejected here, before it can be queued behind a fence.
func (q *QP) PostSend(req Request) error {
	if q.dead {
		return fmt.Errorf("verbs: %s: qp dead (retry budget exhausted)", q.name)
	}
	switch req.Op {
	case OpWrite, OpWriteImm, OpSend, OpFetchAdd, OpCmpSwap:
	case OpSendInv:
		req.Fence = true // Appendix B.5
	case OpRead:
		if len(req.Local) == 0 {
			return fmt.Errorf("verbs: read needs a destination buffer")
		}
	default:
		return fmt.Errorf("verbs: unknown op %v", req.Op)
	}
	if (req.Fence && q.reqWQEs.Len() > 0) || q.fenceQ.Len() > 0 {
		q.fenceQ.Push(req)
		return nil
	}
	q.admit(req)
	return nil
}

// newWQE takes a zeroed Request WQE off the free list, carving a new one
// only when the list is empty.
func (q *QP) newWQE() *reqWQE {
	w := q.wqeFree
	if w == nil {
		return q.wqes.Get()
	}
	q.wqeFree, w.next = w.next, nil
	return w
}

// newPkt takes a packet off the free list, carving a new one only when
// the list is empty. Its contents are stale: every caller overwrites the
// whole struct.
func (q *QP) newPkt() *VPacket {
	if p := q.pktFree.Pop(); p != nil {
		return p
	}
	return q.pkts.Get()
}

// Release puts p on q's free list, to be overwritten by one of q's own
// transmissions. A wire calls it with a packet the peer handed to Send,
// after q.Receive(p, now) has returned — exactly once, and only if it
// delivered that pointer once (Wire); ack calls it with q's own masters.
// Nothing is zeroed here: newPkt's callers overwrite the whole struct.
func (q *QP) Release(p *VPacket) {
	q.pktFree.Push(p)
}

// recycleWQE returns w to the free list once nothing refers to it: popped
// from reqWQEs (expired) and its CQE delivered (completed), which for a
// Read or Atomic also means gone from readsOut. Callers invoke it only
// after cq.push has returned — the completion callback may PostSend, and
// must not be handed the WQE whose completion it is still consuming.
func (q *QP) recycleWQE(w *reqWQE) {
	if w.expired && w.completed {
		*w = reqWQE{next: q.wqeFree}
		q.wqeFree = w
	}
}

// admit packetizes a request PostSend has validated into the send queue.
func (q *QP) admit(req Request) {
	w := q.newWQE()
	w.req, w.msgIdx, w.pkts = req, q.posted, 1
	switch req.Op {
	case OpWrite, OpWriteImm, OpSend, OpSendInv:
		w.pkts = pktsFor(len(req.Data), q.cfg.MTU)
	case OpRead:
		w.dataRemaining = pktsFor(len(req.Local), q.cfg.MTU)
	case OpFetchAdd, OpCmpSwap:
		w.dataRemaining = 1 // single response packet
	}
	w.firstPSN = q.tx.next
	q.posted++
	q.reqWQEs.Push(w)
	q.buildPackets(w)
	q.pump()
}

func pktsFor(n, mtu int) int {
	if n <= 0 {
		return 1
	}
	return (n + mtu - 1) / mtu
}

// buildPackets constructs the wire packets for a WQE, assigning sPSNs.
func (q *QP) buildPackets(w *reqWQE) {
	req := w.req
	switch req.Op {
	case OpWrite, OpWriteImm:
		q.buildSegmented(w, req.Data, true)
	case OpSend, OpSendInv:
		q.buildSegmented(w, req.Data, false)
	case OpRead:
		sn := q.readSSN
		q.readSSN++
		q.readsOut[sn] = w
		q.readsPending++
		p := q.newPkt()
		*p = VPacket{
			BTH:  packet.BTH{Opcode: packet.OpReadRequest},
			RETH: packet.RETH{VA: req.VA, RKey: req.RKey, DMALen: uint32(len(req.Local))},
			Ext:  packet.IRNExt{WQESeq: sn},
		}
		q.tx.enqueue(p)
	case OpFetchAdd, OpCmpSwap:
		sn := q.readSSN
		q.readSSN++
		q.readsOut[sn] = w
		q.readsPending++
		op := packet.OpFetchAdd
		if req.Op == OpCmpSwap {
			op = packet.OpCompareSwap
		}
		p := q.newPkt()
		*p = VPacket{
			BTH:       packet.BTH{Opcode: op},
			RETH:      packet.RETH{VA: req.VA, RKey: req.RKey, DMALen: 8},
			Ext:       packet.IRNExt{WQESeq: sn},
			AtomicCmp: req.Cmp, AtomicSwap: req.Swap,
		}
		if req.Op == OpFetchAdd {
			p.AtomicCmp = req.Add // add operand rides in the cmp slot
		}
		q.tx.enqueue(p)
	}
}

// buildSegmented splits Write/Send payloads into MTU packets. Writes
// carry a RETH in every packet with the packet's own placement address
// (§5.3.1); Sends carry recv_WQE_SN and the relative offset (§5.3.2).
func (q *QP) buildSegmented(w *reqWQE, data []byte, isWrite bool) {
	req := w.req
	mtu := q.cfg.MTU
	n := w.pkts
	var recvSN uint32
	if req.Op == OpSend || req.Op == OpSendInv || req.Op == OpWriteImm {
		recvSN = q.sendSSN
		q.sendSSN++
	}
	for i := 0; i < n; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(data) {
			hi = len(data)
		}
		var payload []byte
		if lo < len(data) {
			payload = data[lo:hi]
		}
		p := q.newPkt()
		*p = VPacket{BTH: packet.BTH{Opcode: segOpcode(req.Op, i, n)}, Payload: payload}
		if isWrite {
			p.RETH = packet.RETH{VA: req.VA + uint64(lo), RKey: req.RKey, DMALen: uint32(len(data))}
		}
		switch req.Op {
		case OpSend, OpSendInv:
			p.Ext = packet.IRNExt{WQESeq: recvSN, RelOffset: uint32(i)}
		case OpWriteImm:
			if i == n-1 {
				p.Ext = packet.IRNExt{WQESeq: recvSN}
			}
		}
		if i == n-1 {
			p.Imm = req.Imm
			p.InvKey = req.InvKey
		}
		q.tx.enqueue(p)
	}
}

// segOpcode picks first/middle/last/only opcodes.
func segOpcode(op OpType, i, n int) packet.Opcode {
	type trio struct{ first, mid, last, only packet.Opcode }
	var t trio
	switch op {
	case OpWrite:
		t = trio{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLast, packet.OpWriteOnly}
	case OpWriteImm:
		t = trio{packet.OpWriteFirst, packet.OpWriteMiddle, packet.OpWriteLastImm, packet.OpWriteOnlyImm}
	case OpSend:
		t = trio{packet.OpSendFirst, packet.OpSendMiddle, packet.OpSendLast, packet.OpSendOnly}
	case OpSendInv:
		t = trio{packet.OpSendFirst, packet.OpSendMiddle, packet.OpSendLastInv, packet.OpSendOnlyInv}
	}
	switch {
	case n == 1:
		return t.only
	case i == 0:
		return t.first
	case i == n-1:
		return t.last
	default:
		return t.mid
	}
}

// pump transmits everything currently allowed: retransmissions first,
// then new packets within BDP-FC.
func (q *QP) pump() {
	if q.dead {
		return
	}
	now := q.eng.Now()
	if now < q.rnrUntil {
		return // backing off after an RNR NACK
	}
	if q.cfg.GoBackN {
		// Go-back-N (baseline RoCE): rewind the whole window from the
		// recovery point; every retained packet at and above it goes out
		// again in PSN order.
		for q.tx.sb.InRecovery() && q.rewind < q.tx.next {
			q.resend(&q.tx, q.rewind)
			q.rewind++
		}
	} else {
		// Selective retransmission (§3.1) of what has been transmitted.
		q.resendLost(&q.tx)
	}
	// New packets under BDP-FC.
	q.transmit(&q.tx)
}

// enterRecovery starts a recovery episode on the request stream if none
// is running. The recovery sequence is the last PSN enqueued — which may
// not have been transmitted yet — where IRN's sender uses the last one
// transmitted.
func (q *QP) enterRecovery() {
	if q.tx.sb.Enter(q.tx.next) {
		q.rewind = q.tx.sb.Cum()
	}
}

// restartRecovery is enterRecovery with the rescan (and rewind) from the
// cumulative ack forced even when an episode is already running
// (timeouts, RNR back-off).
func (q *QP) restartRecovery() {
	q.tx.sb.Enter(q.tx.next)
	q.tx.sb.Rescan()
	q.rewind = q.tx.sb.Cum()
}

// onTimeout restarts recovery from the cumulative ack.
func (q *QP) onTimeout() {
	if q.dead || q.tx.idle() {
		return
	}
	q.Timeouts++
	if q.bumpAttempts() {
		return
	}
	q.restartRecovery()
	q.pump()
}

// bumpAttempts counts one recovery attempt against the bounded retry
// budget; it reports true when the budget is exhausted and the QP died.
func (q *QP) bumpAttempts() bool {
	q.attempts++
	if q.cfg.MaxRetries > 0 && q.attempts > q.cfg.MaxRetries {
		q.fail(q.eng.Now())
		return true
	}
	return false
}

// Dead reports whether the QP exhausted its retry budget and flushed.
func (q *QP) Dead() bool { return q.dead }

// fail kills the QP: cancel timers and flush every incomplete WQE with
// StatusRetryExceeded, in deterministic (posted / sequence-number) order.
func (q *QP) fail(now sim.Time) {
	if q.dead {
		return
	}
	q.dead = true
	q.tx.timer.Cancel()
	q.rtx.timer.Cancel()
	for ; q.reqWQEs.Len() > 0; q.reqWQEs.Pop() {
		if w := *q.reqWQEs.At(0); !w.completed {
			w.completed = true
			q.cq.push(CQE{WQEID: w.req.ID, Op: w.req.Op, Status: StatusRetryExceeded, At: now})
		}
	}
	// Reads/atomics already expired from reqWQEs but awaiting data:
	// walk the read_WQE_SN space in order, never the map.
	for sn := uint32(0); sn < q.readSSN; sn++ {
		if w, ok := q.readsOut[sn]; ok && !w.completed {
			w.completed = true
			q.cq.push(CQE{WQEID: w.req.ID, Op: w.req.Op, Status: StatusRetryExceeded, At: now})
		}
	}
	for q.fenceQ.Len() > 0 {
		r := q.fenceQ.Pop()
		q.cq.push(CQE{WQEID: r.ID, Op: r.Op, Status: StatusRetryExceeded, At: now})
	}
	q.tx.sendQ = fifo.Queue[*VPacket]{}
}

// Receive processes a packet from the peer; the Wire calls this.
func (q *QP) Receive(p *VPacket, now sim.Time) {
	if q.dead {
		return // late packets for a failed QP are dropped silently
	}
	switch p.BTH.Opcode {
	case packet.OpAcknowledge:
		q.onAck(p, false, now)
	case packet.OpAtomicAcknowledge: // used as the NACK carrier
		q.onAck(p, true, now)
	case packet.OpReadRespFirst, packet.OpReadRespMiddle, packet.OpReadRespLast, packet.OpReadRespOnly:
		q.onReadResponse(p, now)
	case packet.OpReadNack:
		q.onReadNack(p)
	default:
		q.onRequest(p, now)
	}
}
