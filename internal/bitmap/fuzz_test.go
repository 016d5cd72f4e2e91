package bitmap

import (
	"slices"
	"testing"
)

// refWindow is a naive reference model of the ring bitmap: a plain boolean
// slice indexed logically from the base. The fuzzer drives both
// implementations with the same operation stream and compares every
// observable.
type refWindow struct {
	bits []bool
	base uint32
}

func newRefWindow(capacity int) *refWindow {
	return &refWindow{bits: make([]bool, capacity)}
}

func (r *refWindow) in(seq uint32) (int, bool) {
	off := int(int32(seq - r.base))
	return off, off >= 0 && off < len(r.bits)
}

func (r *refWindow) set(seq uint32) bool {
	off, ok := r.in(seq)
	if !ok || r.bits[off] {
		return false
	}
	r.bits[off] = true
	return true
}

func (r *refWindow) get(seq uint32) bool {
	off, ok := r.in(seq)
	return ok && r.bits[off]
}

func (r *refWindow) clear(seq uint32) {
	if off, ok := r.in(seq); ok {
		r.bits[off] = false
	}
}

func (r *refWindow) advance(n int) {
	if n >= len(r.bits) {
		for i := range r.bits {
			r.bits[i] = false
		}
	} else {
		copy(r.bits, r.bits[n:])
		for i := len(r.bits) - n; i < len(r.bits); i++ {
			r.bits[i] = false
		}
	}
	r.base += uint32(n)
}

func (r *refWindow) count() int {
	n := 0
	for _, b := range r.bits {
		if b {
			n++
		}
	}
	return n
}

func (r *refWindow) nextZero(from int) int {
	for i := from; i < len(r.bits); i++ {
		if i >= 0 && !r.bits[i] {
			return i
		}
	}
	return len(r.bits)
}

func (r *refWindow) nextOne(from int) int {
	for i := from; i < len(r.bits); i++ {
		if i >= 0 && r.bits[i] {
			return i
		}
	}
	return len(r.bits)
}

func (r *refWindow) countRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > len(r.bits) {
		to = len(r.bits)
	}
	n := 0
	for i := from; i < to; i++ {
		if r.bits[i] {
			n++
		}
	}
	return n
}

// FuzzBitmapOps drives the ring bitmap and the reference model with the
// same byte-derived operation stream — the §6.2.1 operation classes
// (set/get/clear, head-advancing shifts, find-first-zero/one, popcount) —
// and fails on any observable divergence. This is the harness that pins
// the NIC state machine's core data structure.
//
// Two bitmaps run side by side, Init-ed over adjacent halves of one word
// array as a flow's sender and receiver bitmaps are when carved from a
// slab; bit 3 of the op byte picks the one an operation applies to. Each
// is checked against its own model, and an operation on one must leave
// the other's words exactly as they were.
func FuzzBitmapOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{3, 200, 3, 255, 4, 64, 1, 10, 5, 0})
	f.Add([]byte{0, 0, 0, 63, 3, 63, 0, 1, 6, 7, 2, 1})
	f.Add([]byte{0, 127, 8, 0, 11, 129, 3, 127, 8, 127, 12, 255, 0, 0, 13, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 128 // rounds to itself; two words
		w := Words(capacity)
		run := make([]uint64, 2*w)
		var pair [2]Bitmap
		pair[0].Init(run[:w:w])
		pair[1].Init(run[w:])
		refs := [2]*refWindow{newRefWindow(capacity), newRefWindow(capacity)}
		other := make([]uint64, w)

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, data[i+1]
			which := int(data[i] >> 3 & 1)
			b, ref := &pair[which], refs[which]
			copy(other, pair[1-which].words)
			// Offsets may deliberately land outside the window (up to 2x
			// capacity): out-of-window behavior is part of the contract.
			seq := b.Base() + uint32(arg)
			switch op {
			case 0:
				got, err := b.Set(seq)
				want := ref.set(seq)
				if _, in := ref.in(seq); !in {
					if err == nil {
						t.Fatalf("Set(%d) outside window returned no error", seq)
					}
				} else if err != nil {
					t.Fatalf("Set(%d) inside window errored: %v", seq, err)
				}
				if got != want {
					t.Fatalf("Set(%d) = %v, ref %v", seq, got, want)
				}
			case 1:
				if got, want := b.Get(seq), ref.get(seq); got != want {
					t.Fatalf("Get(%d) = %v, ref %v", seq, got, want)
				}
			case 2:
				b.Clear(seq)
				ref.clear(seq)
			case 3:
				n := int(arg) % (b.Cap() + 8) // include full-window shifts
				b.Advance(n)
				ref.advance(n)
			case 4:
				b.AdvanceTo(b.Base() + uint32(arg))
				ref.advance(int(arg))
			case 5:
				if got, want := b.LeadingOnes(), ref.nextZero(0); got != want {
					t.Fatalf("LeadingOnes = %d, ref %d", got, want)
				}
			case 6:
				from := int(arg) % (b.Cap() + 1)
				if got, want := b.NextZero(from), ref.nextZero(from); got != want {
					t.Fatalf("NextZero(%d) = %d, ref %d", from, got, want)
				}
				if got, want := b.NextOne(from), ref.nextOne(from); got != want {
					t.Fatalf("NextOne(%d) = %d, ref %d", from, got, want)
				}
			case 7:
				from := int(arg) % (b.Cap() + 1)
				to := from + int(data[i]/8)
				if got, want := b.CountRange(from, to), ref.countRange(from, to); got != want {
					t.Fatalf("CountRange(%d,%d) = %d, ref %d", from, to, got, want)
				}
			}
			if b.Count() != ref.count() {
				t.Fatalf("after op %d: Count = %d, ref %d", op, b.Count(), ref.count())
			}
			if b.Base() != ref.base {
				t.Fatalf("after op %d: Base = %d, ref %d", op, b.Base(), ref.base)
			}
			if !slices.Equal(other, pair[1-which].words) {
				t.Fatalf("op %d on bitmap %d changed its neighbour's words: %x -> %x", op, which, other, pair[1-which].words)
			}
		}
	})
}
