// Package bitmap implements the ring-buffer bitmaps at the heart of IRN's
// NIC state: fixed-capacity windows of per-packet bits indexed by sequence
// number, supporting the three operation classes the paper identifies
// (§6.2.1) — find-first-zero, popcount, and head-advancing shifts.
//
// A Bitmap tracks one bit per sequence number in the window
// [Base, Base+Cap). The head of the ring corresponds to Base; advancing
// the base is a shift. The same structure backs the sender's SACK bitmap,
// the receiver's arrival bitmap, and (doubled, see TwoBitmap) the
// responder's message-boundary tracking of §5.3.3.
package bitmap

import (
	"fmt"
	"math/bits"
)

// Bitmap is a ring bitmap over the sequence window [Base, Base+Cap).
// The zero value is unusable; call New, or Init on an embedded one.
type Bitmap struct {
	words []uint64
	mask  int // size-1; size is a power of two
	size  int
	head  int    // physical bit index corresponding to Base
	base  uint32 // sequence number of the window start
	count int    // number of set bits
}

// New returns a bitmap with capacity for at least capacity bits.
func New(capacity int) *Bitmap {
	b := new(Bitmap)
	b.Init(make([]uint64, Words(capacity)))
	return b
}

// Words returns how many 64-bit words a bitmap of at least capacity bits
// occupies. Capacity is rounded up to a power of two (at least one word)
// so ring arithmetic stays branch-free.
func Words(capacity int) int {
	if capacity <= 0 {
		panic("bitmap: non-positive capacity")
	}
	size := 64
	for size < capacity {
		size <<= 1
	}
	return size / 64
}

// Init makes b an empty bitmap at base 0 over words, which must be all
// zero and Words(capacity) long. The bitmap owns words from here on: a
// caller that carves them from a larger array hands each bitmap its own
// run.
func (b *Bitmap) Init(words []uint64) {
	size := 64 * len(words)
	if size == 0 || size&(size-1) != 0 {
		panic("bitmap: word count is not a power of two")
	}
	*b = Bitmap{words: words, mask: size - 1, size: size}
}

// Words returns the words b lives in, as passed to Init: an owner that
// re-Inits b for a new life can hand them back (see slab.Slab.Reuse).
func (b *Bitmap) Words() []uint64 { return b.words }

// Cap returns the bitmap capacity in bits.
func (b *Bitmap) Cap() int { return b.size }

// Base returns the sequence number at the window start.
func (b *Bitmap) Base() uint32 { return b.base }

// Count returns the number of set bits in the window.
func (b *Bitmap) Count() int { return b.count }

// phys maps a logical offset (0 = Base) to a physical bit index.
func (b *Bitmap) phys(logical int) int { return (b.head + logical) & b.mask }

// inWindow reports whether seq falls in [Base, Base+Cap) and returns its
// logical offset.
func (b *Bitmap) inWindow(seq uint32) (int, bool) {
	off := int(int32(seq - b.base))
	if off < 0 || off >= b.size {
		return off, false
	}
	return off, true
}

// Set sets the bit for seq. It reports whether the bit was newly set, and
// returns an error if seq falls outside the window (the caller decides
// whether that is a protocol violation or simply a stale duplicate).
func (b *Bitmap) Set(seq uint32) (bool, error) {
	off, ok := b.inWindow(seq)
	if !ok {
		return false, fmt.Errorf("bitmap: seq %d outside window [%d,%d)", seq, b.base, b.base+uint32(b.size))
	}
	p := b.phys(off)
	w, bit := p>>6, uint(p&63)
	if b.words[w]&(1<<bit) != 0 {
		return false, nil
	}
	b.words[w] |= 1 << bit
	b.count++
	return true, nil
}

// Get reports whether the bit for seq is set. Sequence numbers outside the
// window report false.
func (b *Bitmap) Get(seq uint32) bool {
	off, ok := b.inWindow(seq)
	if !ok {
		return false
	}
	p := b.phys(off)
	return b.words[p>>6]&(1<<uint(p&63)) != 0
}

// Clear clears the bit for seq if it is inside the window.
func (b *Bitmap) Clear(seq uint32) {
	off, ok := b.inWindow(seq)
	if !ok {
		return
	}
	p := b.phys(off)
	w, bit := p>>6, uint(p&63)
	if b.words[w]&(1<<bit) != 0 {
		b.words[w] &^= 1 << bit
		b.count--
	}
}

// Advance moves the window start forward by n sequence numbers, clearing
// the bits that fall out of the window. This is the "bit shift to advance
// the bitmap head" operation of §6.2.1.
func (b *Bitmap) Advance(n int) {
	if n < 0 {
		panic("bitmap: negative advance")
	}
	if n >= b.size {
		for i := range b.words {
			b.words[i] = 0
		}
		b.count = 0
		b.head = 0
		b.base += uint32(n)
		return
	}
	// Clear [0, n) logical, word by word.
	cleared := 0
	for cleared < n {
		p := b.phys(cleared)
		w, bit := p>>6, uint(p&63)
		// Clear from bit to min(63, bit + remaining - 1) in this word.
		span := 64 - int(bit)
		if rem := n - cleared; span > rem {
			span = rem
		}
		var m uint64
		if span == 64 {
			m = ^uint64(0)
		} else {
			m = ((uint64(1) << uint(span)) - 1) << bit
		}
		b.count -= bits.OnesCount64(b.words[w] & m)
		b.words[w] &^= m
		cleared += span
	}
	b.head = (b.head + n) & b.mask
	b.base += uint32(n)
}

// AdvanceTo moves the window start to sequence number seq. seq must not be
// behind the current base.
func (b *Bitmap) AdvanceTo(seq uint32) {
	d := int(int32(seq - b.base))
	if d < 0 {
		panic("bitmap: AdvanceTo behind base")
	}
	if d > 0 {
		b.Advance(d)
	}
}

// LeadingOnes returns the number of consecutive set bits starting at the
// window base. For a receiver bitmap this is how far the cumulative
// acknowledgement can advance; it is the find-first-zero of §6.2.1.
func (b *Bitmap) LeadingOnes() int {
	return b.NextZero(0)
}

// NextZero returns the logical offset (>= from) of the first clear bit, or
// Cap() if every bit from from onward is set.
func (b *Bitmap) NextZero(from int) int {
	for off := from; off < b.size; {
		p := b.phys(off)
		w, bit := p>>6, uint(p&63)
		// Invert and mask off bits below 'bit'; any set bit marks a zero.
		inv := ^b.words[w] >> bit
		span := 64 - int(bit)
		if avail := b.size - off; span > avail {
			span = avail
			if span < 64 {
				inv &= (uint64(1) << uint(span)) - 1
			}
		}
		if inv != 0 {
			z := bits.TrailingZeros64(inv)
			if z < span {
				return off + z
			}
		}
		off += span
	}
	return b.size
}

// NextOne returns the logical offset (>= from) of the first set bit, or
// Cap() if no bit from from onward is set. The sender's transmission logic
// uses this to look ahead in the SACK bitmap for the next packet to
// retransmit (§6.2.1 txFree).
func (b *Bitmap) NextOne(from int) int {
	for off := from; off < b.size; {
		p := b.phys(off)
		w, bit := p>>6, uint(p&63)
		v := b.words[w] >> bit
		span := 64 - int(bit)
		if avail := b.size - off; span > avail {
			span = avail
			if span < 64 {
				v &= (uint64(1) << uint(span)) - 1
			}
		}
		if v != 0 {
			z := bits.TrailingZeros64(v)
			if z < span {
				return off + z
			}
		}
		off += span
	}
	return b.size
}

// CountRange returns the number of set bits with logical offsets in
// [from, to). This is the popcount operation of §6.2.1 (MSN increments,
// Receive WQE expiry counts).
func (b *Bitmap) CountRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > b.size {
		to = b.size
	}
	n := 0
	for off := from; off < to; {
		p := b.phys(off)
		w, bit := p>>6, uint(p&63)
		v := b.words[w] >> bit
		span := 64 - int(bit)
		if rem := to - off; span > rem {
			span = rem
			if span < 64 {
				v &= (uint64(1) << uint(span)) - 1
			}
		}
		n += bits.OnesCount64(v)
		off += span
	}
	return n
}

// Reset clears all bits and moves the base to seq.
func (b *Bitmap) Reset(seq uint32) {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
	b.head = 0
	b.base = seq
}

// String renders the window as a bit string for debugging (LSB = base).
func (b *Bitmap) String() string {
	buf := make([]byte, 0, b.size+16)
	buf = append(buf, fmt.Sprintf("[%d+", b.base)...)
	for i := 0; i < b.size; i++ {
		p := b.phys(i)
		if b.words[p>>6]&(1<<uint(p&63)) != 0 {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	buf = append(buf, ']')
	return string(buf)
}
