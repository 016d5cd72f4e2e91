package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a Queue and a plain slice with the
// same random pushes and pops: same contents in the same order, popped
// slots zeroed so nothing popped stays reachable, and the array reused —
// never regrown — by a workload whose depth stays bounded, whether or not
// the queue ever drains.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var q Queue[*int]
		var model []*int
		depth := 1 + rng.Intn(40)
		drains := rng.Intn(2) == 0 // half the trials never empty the queue
		maxCap := 0
		for step := 0; step < 4000; step++ {
			push := rng.Intn(2) == 0
			if len(model) >= depth {
				push = false
			} else if len(model) == 0 || (!drains && len(model) == 1) {
				push = true
			}
			if push {
				v := new(int)
				*v = step
				q.Push(v)
				model = append(model, v)
			} else {
				if got := q.Pop(); got != model[0] {
					t.Fatalf("trial %d step %d: popped %d, want %d", trial, step, *got, *model[0])
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, q.Len(), len(model))
			}
			for i, want := range model {
				if got := *q.At(i); got != want {
					t.Fatalf("trial %d step %d: At(%d) = %d, want %d", trial, step, i, *got, *want)
				}
			}
			for i, p := range q.buf[:cap(q.buf)] {
				if live := i >= q.head && i < len(q.buf); !live && p != nil {
					t.Fatalf("trial %d step %d: dead slot %d still holds a pointer", trial, step, i)
				}
			}
			if len(model) == 0 && (q.head != 0 || len(q.buf) != 0) {
				t.Fatalf("trial %d step %d: drained queue did not rewind (head %d, len %d)", trial, step, q.head, len(q.buf))
			}
			maxCap = max(maxCap, cap(q.buf))
		}
		// Append doubles (rounded up to a size class) only while at least
		// half the array is live; otherwise the live part slides down. So
		// the array stays within a small multiple of the deepest the
		// queue got.
		if maxCap > 5*depth+8 {
			t.Errorf("trial %d: capacity reached %d for a queue never deeper than %d", trial, maxCap, depth)
		}
	}
}
