package verbs

import "github.com/irnsim/irn/internal/fifo"

// This file implements Receive WQE management: the per-QP receive queue,
// and the shared receive queue of Appendix B.2, where recv_WQE_SNs are
// allotted when WQEs are dequeued from the SRQ rather than when posted —
// so a send packet with recv_WQE_SN = k forces dequeuing WQEs up to k.

// wqeRing holds one QP's Receive WQEs by value, indexed by recv_WQE_SN:
// a power-of-two ring over the sequence numbers [base, next) that doubles
// when a post finds it full. Lookup is random-access (out-of-order
// placement asks for any posted WQE); consumption advances base over the
// consumed prefix. It is the QP-private receive queue as is: WQEs get
// consecutive sequence numbers at post time.
type wqeRing struct {
	slots      []RecvWQE // len is zero or a power of two
	base, next uint32
}

// post appends a Receive WQE, allotting the next recv_WQE_SN.
func (r *wqeRing) post(w RecvWQE) {
	if n := len(r.slots); int(r.next-r.base) == n {
		grown := make([]RecvWQE, max(8, 2*n))
		for sn := r.base; sn != r.next; sn++ {
			grown[int(sn)&(len(grown)-1)] = r.slots[int(sn)&(n-1)]
		}
		r.slots = grown
	}
	w.held = true
	r.slots[int(r.next)&(len(r.slots)-1)] = w
	r.next++
}

// get implements recvProvider.
func (r *wqeRing) get(sn uint32) (RecvWQE, bool) {
	if sn-r.base >= r.next-r.base {
		return RecvWQE{}, false
	}
	w := r.slots[int(sn)&(len(r.slots)-1)]
	return w, w.held
}

// available implements recvProvider.
func (r *wqeRing) available(sn uint32) bool {
	_, ok := r.get(sn)
	return ok
}

// consume implements recvProvider.
func (r *wqeRing) consume(sn uint32) {
	if sn-r.base >= r.next-r.base {
		return
	}
	mask := len(r.slots) - 1
	r.slots[int(sn)&mask] = RecvWQE{} // release the buffer too
	for r.base != r.next && !r.slots[int(r.base)&mask].held {
		r.base++
	}
}

// SRQ is a shared receive queue (Appendix B.2): multiple QPs draw
// Receive WQEs from one pool. Each QP keeps its own recv_WQE_SN space —
// sequence numbers are allotted per QP, when WQEs are dequeued from the
// pool: "rather than allotting it as soon as a new receive WQE is
// posted... with SRQ, we allot it when new recv WQEs are dequeued from
// SRQ." A send packet carrying recv_WQE_SN k forces its QP to dequeue
// WQEs for its sequence numbers up to k.
type SRQ struct {
	queue fifo.Queue[RecvWQE]
}

// NewSRQ returns an empty shared receive queue.
func NewSRQ() *SRQ { return &SRQ{} }

// Post appends a Receive WQE to the shared pool (no SN yet).
func (s *SRQ) Post(id uint64, buf []byte) {
	s.queue.Push(RecvWQE{ID: id, Buf: buf})
}

// Pending reports WQEs still waiting in the shared pool.
func (s *SRQ) Pending() int { return s.queue.Len() }

// srqBinding is one QP's view of a shared receive queue: the QP-local
// recv_WQE_SN space mapped onto WQEs dequeued from the shared pool.
type srqBinding struct {
	srq   *SRQ
	local wqeRing
}

// drainTo dequeues pool WQEs until this QP has allotted local sequence
// number sn (the Appendix B.2 example: recv_WQE_SN 4 forces dequeuing
// WQEs for SNs 1..4).
func (b *srqBinding) drainTo(sn uint32) {
	for b.local.next <= sn && b.srq.Pending() > 0 {
		b.local.post(b.srq.queue.Pop())
	}
}

// get implements recvProvider.
func (b *srqBinding) get(sn uint32) (RecvWQE, bool) {
	b.drainTo(sn)
	return b.local.get(sn)
}

// available implements recvProvider.
func (b *srqBinding) available(sn uint32) bool {
	if b.local.available(sn) {
		return true
	}
	need := int(sn-b.local.next) + 1
	return need <= b.srq.Pending()
}

// consume implements recvProvider.
func (b *srqBinding) consume(sn uint32) { b.local.consume(sn) }
