package kv

import "github.com/irnsim/irn/internal/verbs"

// This file is RPC frame ownership. Each actor (every client, the leader)
// recycles its frames through a pool of its own, so a message in steady
// state allocates nothing. A frame is referenced by whatever keeps it —
// the leader's log entry, a client's cached response — and by every send
// of it posted to a QP, until that send's CQE: the CQE says the
// responder's MSN passed the message, so any copy of its packets still in
// the fabric is below the peer's expected PSN and is re-ACKed without its
// payload being read. That is what makes it safe to rewrite the bytes
// while VPackets sub-slicing them may still be queued.

// frame is one pooled frame: buf has the capacity of a ring slot.
type frame struct {
	buf  []byte
	refs int
	next *frame // free-list link
}

// framePool is one actor's frames.
type framePool struct {
	free   *frame
	size   int // slotBytes(): the capacity of every frame
	carved int // frames ever allocated: what a leak check counts against
}

// get takes an unreferenced frame off the free list, allocating one only
// when the list is empty.
func (p *framePool) get() *frame {
	f := p.free
	if f == nil {
		p.carved++
		return &frame{buf: make([]byte, 0, p.size)}
	}
	p.free, f.next = f.next, nil
	return f
}

// unref drops one reference; the last one puts f back on the free list.
func (p *framePool) unref(f *frame) {
	if f.refs--; f.refs == 0 {
		f.next = p.free
		p.free = f
	}
}

// post sends f.buf as req's payload, holding a reference until the send
// completes (sent).
func (ep *endpoint) post(f *frame, req verbs.Request) {
	f.refs++
	ep.posted.Push(f)
	req.Data = f.buf
	_ = ep.qp.PostSend(req) // fails only on a dead QP, and New forces MaxRetries = 0
}

// sent consumes a send completion. RC completions arrive in posted order
// and kv's QPs never flush, so it is for the oldest posted frame. A failed
// completion promises nothing about the peer: that frame goes to the GC,
// not back to pool.
func (ep *endpoint) sent(pool *framePool, e verbs.CQE) {
	f := ep.posted.Pop()
	if e.Status == verbs.StatusOK {
		pool.unref(f)
	}
}
