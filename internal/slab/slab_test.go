package slab

import (
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

// TestGetPointersSurviveRefills: every pointer handed out is distinct,
// zero, and keeps the value written through it across any number of
// chunk refills, at one heap allocation per chunk.
func TestGetPointersSurviveRefills(t *testing.T) {
	var s Slab[[3]int]
	const n = 5*chunk + 7
	ptrs := make([]*[3]int, n)
	seen := make(map[*[3]int]bool, n)
	for i := range ptrs {
		p := s.Get()
		if *p != ([3]int{}) {
			t.Fatalf("object %d handed out dirty: %v", i, *p)
		}
		if seen[p] {
			t.Fatalf("object %d handed out twice", i)
		}
		seen[p] = true
		p[0], p[2] = i, -i
		ptrs[i] = p
	}
	for i, p := range ptrs {
		if p[0] != i || p[1] != 0 || p[2] != -i {
			t.Fatalf("object %d overwritten after later refills: %v", i, *p)
		}
	}
	var fresh Slab[[3]int]
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4*chunk; i++ {
			fresh.Get()
		}
	}); got != 4 {
		t.Fatalf("%d objects cost %.0f allocations, want 4", 4*chunk, got)
	}
}

// firing is an object with a timer embedded by value that fires into the
// object itself — the shape of every transport sender.
type firing struct {
	id    int
	timer sim.Timer
	log   *[]int
}

func (f *firing) HandleEvent(uint8, uint64) { *f.log = append(*f.log, f.id) }

// TestEmbeddedTimerFiresAcrossRefill: a timer armed inside a chunk-0
// object still fires that object's handler after later chunks exist —
// carving never moves or copies what it already handed out.
func TestEmbeddedTimerFiresAcrossRefill(t *testing.T) {
	eng := sim.NewEngine()
	var s Slab[firing]
	var log []int
	objs := make([]*firing, 2*chunk+1)
	for i := range objs {
		f := s.Get()
		f.id, f.log = i, &log
		f.timer.Init(eng, nil, f, 0)
		// Armed before the next Get, which for i = chunk-1 refills.
		f.timer.Arm(sim.Duration(len(objs)-i) * sim.Microsecond)
		objs[i] = f
	}
	eng.Run()
	if len(log) != len(objs) {
		t.Fatalf("%d of %d timers fired", len(log), len(objs))
	}
	for k, id := range log {
		if want := len(objs) - 1 - k; id != want {
			t.Fatalf("firing %d reached object %d, want %d", k, id, want)
		}
	}
}

// TestRunsAreDisjoint: runs never overlap, cannot be appended into a
// neighbour, start zeroed, and an oversized or nil-slab run comes from the
// heap without disturbing the current chunk.
func TestRunsAreDisjoint(t *testing.T) {
	var s Slab[uint64]
	var runs [][]uint64
	for i, n := range []int{1, 2, 1, chunk - 5, 3, 2, 4 * chunk, 1, chunk, 2} {
		r := s.Run(n)
		if len(r) != n || cap(r) != n {
			t.Fatalf("run %d: len=%d cap=%d, want %d/%d", i, len(r), cap(r), n, n)
		}
		for j := range r {
			if r[j] != 0 {
				t.Fatalf("run %d handed out dirty", i)
			}
			r[j] = uint64(i + 1)
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		for j := range r {
			if r[j] != uint64(i+1) {
				t.Fatalf("run %d word %d overwritten by a later run: %d", i, j, r[j])
			}
		}
	}
	grown := append(runs[0], 99)
	if &grown[0] == &runs[0][0] || runs[1][0] != 2 {
		t.Fatal("append to a run grew into its neighbour")
	}
	var none *Slab[uint64]
	if r := none.Run(3); len(r) != 3 || cap(r) != 3 {
		t.Fatalf("nil slab run: len=%d cap=%d", len(r), cap(r))
	}
}

// TestReuseKeepsALongEnoughRun: Reuse hands an object back its own run,
// zeroed, for any length up to the run's capacity — a shorter life first
// keeps the longer capacity for the next — and carves a fresh run only
// when the old one is too short.
func TestReuseKeepsALongEnoughRun(t *testing.T) {
	var s Slab[uint64]
	old := s.Run(8)
	for i := range old {
		old[i] = 7
	}
	short := s.Reuse(old, 2)
	if len(short) != 2 || &short[0] != &old[0] || short[0] != 0 || short[1] != 0 {
		t.Fatalf("shorter life got %v, want old's first 2 words zeroed", short)
	}
	short[0], short[1] = 5, 5
	full := s.Reuse(short, 8)
	if len(full) != 8 || &full[0] != &old[0] {
		t.Fatal("a run shortened by one life was not handed back whole to the next")
	}
	for i, w := range full {
		if w != 0 {
			t.Fatalf("word %d handed back dirty: %d", i, w)
		}
	}
	longer := s.Reuse(full, 16)
	if len(longer) != 16 || cap(longer) != 16 || &longer[0] == &old[0] {
		t.Fatal("a run too short for the next life was reused")
	}
	var none *Slab[uint64]
	if r := none.Reuse(nil, 3); len(r) != 3 {
		t.Fatalf("nil slab, no old run: len %d", len(r))
	}
}
