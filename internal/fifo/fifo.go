// Package fifo is the one queue the verbs and kv message paths share: a
// FIFO over a single backing array with a head index. Popping with
// q = q[1:] discards capacity, so a long-lived queue reallocates once per
// wrap; here a pop only advances the head, the array is reused from the
// start whenever the queue drains, and a queue that never drains slides
// its live half down instead of growing.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full with most of the array already popped: slide the live
		// elements down rather than let append double it.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// At returns the i-th element from the head (0 is the next to pop). The
// pointer is valid until the next Push or Pop.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Pop removes and returns the head. The vacated slot is zeroed so the
// queue pins nothing it no longer holds.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
