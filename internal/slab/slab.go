// Package slab carves objects out of fixed-size arrays: one heap
// allocation per chunk of elements instead of one per object. Nothing is
// handed out twice and nothing is ever reset — an object lives exactly as
// long as a plain heap object would, and the garbage collector frees a
// chunk once every object carved from it is unreachable — so a slab
// changes the malloc count and nothing else. Reuse is the owner's: the
// verbs layer carves WQEs and packets from per-QP slabs and recycles them
// through its own free lists; the experiment launcher carves senders,
// receivers and bitmap words from per-shard slabs that die with the run,
// reuses a sender the NIC has reaped and a receiver whose flow has
// completed before it carves another, and a recycled object keeps its
// bitmap words (Slab.Reuse) when they are enough for its next flow.
package slab

// chunk is the number of elements per heap allocation.
const chunk = 64

// Slab hands out zero-valued Ts. The zero value is an empty slab. Not
// safe for concurrent use: give each goroutine its own.
type Slab[T any] struct{ free []T }

// Get returns a pointer to a new zero T. It stays valid, and distinct
// from every other pointer handed out, for as long as the caller holds it.
func (s *Slab[T]) Get() *T {
	if len(s.free) == 0 {
		s.free = make([]T, chunk)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// Reuse returns n zero Ts for an object starting a new life: the first n
// of old, the run its last life used, cleared, when old has room for
// them, and Run(n) otherwise. So a recycled object keeps its run as long
// as that is long enough, and carves only when it needs a longer one.
func (s *Slab[T]) Reuse(old []T, n int) []T {
	if cap(old) >= n {
		r := old[:n]
		clear(r)
		return r
	}
	return s.Run(n)
}

// Run returns n contiguous zero Ts with no capacity beyond n, so
// neighbouring runs cannot grow into each other. A run that does not fit
// the rest of the current chunk starts a new one (the remainder is left
// unused); a run longer than a chunk gets an allocation of its own. A nil
// slab carves from the heap, which is how the package-level transport
// constructors build a single flow without a launcher.
func (s *Slab[T]) Run(n int) []T {
	if s == nil || n > chunk {
		return make([]T, n)
	}
	if len(s.free) < n {
		s.free = make([]T, chunk)
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}
