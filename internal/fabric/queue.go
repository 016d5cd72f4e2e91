package fabric

import "github.com/irnsim/irn/internal/packet"

// pktQueue is a FIFO ring of packets with O(1) push/pop and without
// unbounded backing-array growth. Virtual output queues are long-lived and
// churn millions of packets, so popping by re-slicing (which pins the
// backing array) is not acceptable. The ring's capacity is always a power
// of two so head/tail indexing is a bitmask — on the per-packet path that
// beats both the old compacting copy and an integer modulo.
type pktQueue struct {
	buf  []*packet.Packet // ring storage; len(buf) is 0 or a power of two
	head int              // index of the first packet
	n    int              // packets queued
}

// queueMinCap is the capacity a queue starts from (and the floor below
// which pop never shrinks it): large enough that steady-state depths never
// realloc, small enough that a fat-tree's thousands of VOQs stay cheap.
const queueMinCap = 64

// shrinkMinCap is the capacity above which pop considers shrinking a
// mostly-empty queue, and the capacity a shrunk queue restarts from.
const shrinkMinCap = 1024

// push appends a packet.
func (q *pktQueue) push(p *packet.Packet) {
	if q.n == len(q.buf) {
		q.regrow(max(queueMinCap, 2*len(q.buf)))
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// pop removes and returns the packet at the head, or nil if empty.
func (q *pktQueue) pop() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil // release for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	// A ring that absorbed an incast burst would otherwise pin its peak
	// footprint for the rest of the run (across every VOQ of every
	// switch). Once capacity greatly exceeds the live count, reallocate
	// small and let the burst-sized array go to GC.
	if len(q.buf) > shrinkMinCap && len(q.buf) > 4*q.n {
		q.regrow(max(ceilPow2(q.n), shrinkMinCap))
	}
	return p
}

// regrow moves the ring into a fresh power-of-two array of size newCap.
func (q *pktQueue) regrow(newCap int) {
	grown := make([]*packet.Packet, newCap)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		grown[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = grown
	q.head = 0
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// peek returns the head packet without removing it.
func (q *pktQueue) peek() *packet.Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// len returns the number of queued packets.
func (q *pktQueue) len() int { return q.n }

// empty reports whether the queue holds no packets.
func (q *pktQueue) empty() bool { return q.n == 0 }

// reset empties the queue for a new run, dropping packet references (the
// packets belong to the previous trial) but keeping the ring array warm.
func (q *pktQueue) reset() {
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&mask] = nil
	}
	q.head, q.n = 0, 0
}
