// Package verbs implements the RDMA semantics layer of §5: queue pairs
// exchanging Write, Write-with-Immediate, Read, Send and Atomic
// operations with IRN's transport extensions — out-of-order packet
// placement directly into application memory, the responder's 2-bitmap
// and premature CQEs (§5.3.3), explicit WQE sequence numbers for matching
// packets to Receive WQEs and Read WQE buffer slots (§5.3.2), the RETH
// carried in every packet (§5.3.1), the split sPSN/rPSN sequence spaces
// (§5.4), read (N)ACKs on the new opcode (§5.2), shared receive queues,
// end-to-end credits with RNR handling, and Send-with-Invalidate fencing
// (Appendix B).
//
// The layer runs over an abstract Wire that may delay, reorder and drop
// packets; tests drive it over both a perfect pipe and adversarial
// channels. §5 is about how IRN's loss recovery interacts with RDMA
// message semantics, so the packets here carry their real header content
// and the message-level rules — WQE and CQE ordering, MSN expiry, RNR,
// fences — live in this package. The loss recovery underneath them is
// not a second implementation: each QP runs internal/recovery's
// scoreboard once per PSN space (sendHalf), the same state machine as
// internal/core's sender.
//
// Per-message state is fixed-size, as §6's NIC budget assumes: retained
// packets and staged CQEs sit in rings indexed by PSN, Receive WQEs in a
// ring indexed by recv_WQE_SN, WQEs and packets are recycled through
// per-QP free lists and the queues keep their arrays, so a message in
// steady state costs no heap allocation. The request space's rings are
// sized by the QP's BDP cap, rounded up to a power of two; the
// read-response space's rings hold PSNWindow entries and are made only
// once a Read or Atomic response flows (ARCHITECTURE.md, "verbs/kv
// message path").
package verbs

import (
	"encoding/binary"
	"fmt"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// OpType is the application-level operation.
type OpType uint8

// Operation types (§5.1).
const (
	OpWrite OpType = iota
	OpWriteImm
	OpRead
	OpSend
	OpSendInv
	OpFetchAdd
	OpCmpSwap
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	case OpSend:
		return "SEND"
	case OpSendInv:
		return "SEND_INV"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCmpSwap:
		return "CMP_SWAP"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(o))
	}
}

// Status is the completion status of a CQE.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	// StatusRetryExceeded flushes a WQE whose QP exhausted its bounded
	// retry budget (Config.MaxRetries) — the error surface a client uses
	// to fail over instead of hanging on a dead peer.
	StatusRetryExceeded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXCEEDED"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// CQE is a completion queue entry.
type CQE struct {
	WQEID   uint64
	Op      OpType
	Imm     uint32 // immediate data (receive side of Write-with-Imm / Send)
	Len     int
	Atomic  uint64 // original value returned by atomics
	Receive bool   // true for Receive WQE completions
	Status  Status
	At      sim.Time
}

// CQ is a completion queue.
type CQ struct {
	entries []CQE
	handler func(CQE)
}

// OnComplete registers fn to be invoked synchronously for every
// completion instead of queueing it for Poll. This is the event-driven
// consumption mode the kv service uses: the handler runs on the QP
// owner's simulation shard, inside the event that produced the
// completion, so reactions (reposting receives, sending a response) are
// scheduled through the owner's clock and stay deterministic.
func (q *CQ) OnComplete(fn func(CQE)) { q.handler = fn }

// push appends a completion, or delivers it to the OnComplete handler.
func (q *CQ) push(e CQE) {
	if q.handler != nil {
		q.handler(e)
		return
	}
	q.entries = append(q.entries, e)
}

// Poll drains and returns all pending completions.
func (q *CQ) Poll() []CQE {
	e := q.entries
	q.entries = nil
	return e
}

// Len reports pending completions.
func (q *CQ) Len() int { return len(q.entries) }

// Memory is the simulated host memory exposed to RDMA: a set of
// registered regions addressed by rkey, with byte-granularity DMA.
type Memory struct {
	regions map[uint32][]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{regions: make(map[uint32][]byte)}
}

// Register exposes buf under rkey.
func (m *Memory) Register(rkey uint32, buf []byte) {
	m.regions[rkey] = buf
}

// Invalidate revokes rkey (Send-with-Invalidate, Appendix B.5).
func (m *Memory) Invalidate(rkey uint32) {
	delete(m.regions, rkey)
}

// Valid reports whether rkey is registered.
func (m *Memory) Valid(rkey uint32) bool {
	_, ok := m.regions[rkey]
	return ok
}

// Write DMAs data to rkey at byte offset va. It reports whether the
// access was valid.
func (m *Memory) Write(rkey uint32, va uint64, data []byte) bool {
	buf, ok := m.regions[rkey]
	if !ok || va+uint64(len(data)) > uint64(len(buf)) {
		return false
	}
	copy(buf[va:], data)
	return true
}

// Read DMAs length bytes from rkey at offset va.
func (m *Memory) Read(rkey uint32, va uint64, length int) ([]byte, bool) {
	buf, ok := m.regions[rkey]
	if !ok || va+uint64(length) > uint64(len(buf)) {
		return nil, false
	}
	out := make([]byte, length)
	copy(out, buf[va:])
	return out, true
}

// View returns the registered bytes at rkey/va without copying. The
// slice aliases the region: it is only valid until the next Write to
// the range, and a Write only ever happens inside a later event (a
// packet arriving at the QP), so callers must finish with the bytes —
// parse them, and copy what has to outlive the handler — before
// returning to the event loop. Every kv ring consumer decodes its frame
// this way, in place, with no per-delivery allocation.
func (m *Memory) View(rkey uint32, va uint64, length int) ([]byte, bool) {
	buf, ok := m.regions[rkey]
	if !ok || va+uint64(length) > uint64(len(buf)) {
		return nil, false
	}
	return buf[va : va+uint64(length)], true
}

// ReadWord fetches the 8-byte word atomics operate on, in place.
func (m *Memory) ReadWord(rkey uint32, va uint64) (uint64, bool) {
	b, ok := m.View(rkey, va, 8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

// WriteWord stores the 8-byte word, in place.
func (m *Memory) WriteWord(rkey uint32, va uint64, v uint64) bool {
	b, ok := m.View(rkey, va, 8)
	if ok {
		binary.LittleEndian.PutUint64(b, v)
	}
	return ok
}

// Wire carries verbs packets between two QPs. Implementations may delay,
// reorder, duplicate or drop. Send takes ownership of p: the sending QP
// never touches it again, so a wire may hold it as long as it likes.
// After delivering p — the peer's Receive(p, now) has returned — a wire
// that delivered that pointer exactly once may hand it to the receiving
// QP with Release; one that does not leaves it to the GC.
type Wire interface {
	Send(p *VPacket)
}

// WireFunc adapts a function to Wire.
type WireFunc func(*VPacket)

// Send implements Wire.
func (f WireFunc) Send(p *VPacket) { f(p) }

// VPacket is a verbs-layer packet: the BTH plus IRN's extensions. It is
// defined in package packet so a fabric packet can carry one as a typed
// pointer.
type VPacket = packet.VPacket
